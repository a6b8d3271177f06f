package repro.core

import repro.{Oracle, SparkSpec}
import org.apache.spark.sql.functions._

class RuleGenSpec extends SparkSpec {

  private def clustersDf(rows: (Long, Long, String)*) = {
    import spark.implicits._
    rows.toDF("cluster", "recordId", "value")
  }

  test("distributed generation matches local clusterRules") {
    val df = clustersDf(
      (1, 1, "9 St, 02141 Wisconsin"), (1, 2, "9th St, 02141 WI"), (1, 3, "9 Street, 02141 WI"),
      (2, 4, "H & M"), (2, 5, "H and M"), (2, 6, "H &amp; M"))
    val dist = RuleGen.generate(spark, df)
    val local = Rules.merge(Seq(
      Rules.clusterRules(1, Seq("9 St, 02141 Wisconsin", "9th St, 02141 WI", "9 Street, 02141 WI")),
      Rules.clusterRules(2, Seq("H & M", "H and M", "H &amp; M"))).flatMap(_.values))
    assert(dist == local)
  }

  test("rules merge across clusters") {
    val df = clustersDf((1, 1, "9 St"), (1, 2, "9th St"), (2, 3, "9 Ave"), (2, 4, "9th Ave"))
    val catalog = RuleGen.generate(spark, df)
    assert(catalog.keySet == Set(RuleKey.of("9", "9th"),
      RuleKey.of("9 St", "9th St"), RuleKey.of("9 Ave", "9th Ave")))
    val r = catalog(RuleKey.of("9", "9th"))
    assert(r.occA.map(_.cluster) == Set(1L, 2L))
    assert(r.frequency == 2)
  }

  test("values are deduplicated within a cluster") {
    val df = clustersDf((1, 1, "a x"), (1, 2, "a x"), (1, 3, "a y"))
    val catalog = RuleGen.generate(spark, df)
    assert(catalog.keySet == Set(RuleKey.of("x", "y"), RuleKey.of("a x", "a y")))
  }

  test("empty and singleton clusters produce nothing") {
    val df = clustersDf((1, 1, "only"), (2, 2, "a"), (2, 3, "a"))
    assert(RuleGen.generate(spark, df).isEmpty)
  }

  test("distinctDuplicatePairs counts distinct-value pairs per cluster") {
    val df = clustersDf(
      (1, 1, "a"), (1, 2, "b"), (1, 3, "c"), (1, 4, "c"), // 3 distinct -> 3 pairs
      (2, 5, "x"), (2, 6, "y"))                           // 2 distinct -> 1 pair
    assert(RuleGen.distinctDuplicatePairs(spark, df) == 4)
  }

  test("distinctDuplicatePairs agrees with the DuckDB oracle") {
    val df = clustersDf(
      (1, 1, "a"), (1, 2, "b"), (1, 3, "c"), (2, 4, "x"), (2, 5, "x"), (3, 6, "z"))
    import spark.implicits._
    val got = Seq(RuleGen.distinctDuplicatePairs(spark, df).toString).toDF("pairs")
    val sql =
      """
        |SELECT CAST(CAST(SUM(n * (n - 1) / 2) AS BIGINT) AS VARCHAR) AS pairs FROM (
        |  SELECT cluster, COUNT(DISTINCT value) AS n FROM t GROUP BY cluster
        |)
        |""".stripMargin
    Oracle.assertEquivalent(got, sql, "t" -> df)
  }

  test("NULL values generate no rules; rule values agree with the DuckDB oracle") {
    val df = clustersDf(
      (1, 1, "9 St"), (1, 2, null), (1, 3, "9th St"),
      (2, 4, null), (2, 5, "x"),
      (3, 6, null), (3, 7, null))
    import spark.implicits._
    val catalog = RuleGen.generate(spark, df)
    val got = catalog.valuesIterator
      .flatMap(r => (r.occA ++ r.occB).iterator.map(o => (o.cluster.toString, o.value)))
      .toSeq.distinct.toDF("cluster", "value")
    val sql =
      """
        |SELECT DISTINCT cluster, value FROM t
        |WHERE value IS NOT NULL AND cluster IN (
        |  SELECT cluster FROM t WHERE value IS NOT NULL
        |  GROUP BY cluster HAVING COUNT(DISTINCT value) >= 2)
        |""".stripMargin
    Oracle.assertEquivalent(got, sql, "t" -> df)
  }
}
