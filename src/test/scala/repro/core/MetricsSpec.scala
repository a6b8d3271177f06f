package repro.core

import repro.{Oracle, SparkSpec}
import org.apache.spark.sql.functions._

class MetricsSpec extends SparkSpec {

  private def values(rows: (Long, Long, String)*) = {
    import spark.implicits._
    rows.toDF("cluster", "recordId", "value")
  }

  private def pairs(rows: (Long, Long, Long, Boolean)*) = {
    import spark.implicits._
    rows.toDF("cluster", "rid1", "rid2", "positive")
  }

  test("pairConfusion counts TP/FP/FN/TN") {
    val v = values((1, 1, "a"), (1, 2, "a"), (1, 3, "b"), (1, 4, "c"))
    val p = pairs(
      (1, 1, 2, true),  // same string, positive -> TP
      (1, 1, 3, true),  // diff string, positive -> FN
      (1, 3, 4, false), // diff string, negative -> TN
      (1, 2, 1, false)) // same string, negative -> FP
    val c = Metrics.pairConfusion(spark, v, p)
    assert(c == PairConfusion(1, 1, 1, 1))
    assert(c.precision == 0.5 && c.recall == 0.5 && math.abs(c.mcc) < 1e-9)
  }

  test("pairConfusion counts NULL values: NULL matches only NULL") {
    val v = values((1, 1, "a"), (1, 2, null), (1, 3, null), (1, 4, "b"))
    val p = pairs(
      (1, 1, 2, true),  // "a" vs NULL, positive -> FN
      (1, 2, 3, true),  // NULL vs NULL, positive -> TP
      (1, 3, 4, false), // NULL vs "b", negative -> TN
      (1, 2, 3, false)) // NULL vs NULL, negative -> FP
    val c = Metrics.pairConfusion(spark, v, p)
    assert(c.tp + c.fp + c.fn + c.tn == 4, c)
    assert(c == PairConfusion(1, 1, 1, 1))
  }

  test("MCC is 1 for a perfect confusion and -1 for an inverted one") {
    assert(math.abs(PairConfusion(5, 0, 0, 5).mcc - 1.0) < 1e-9)
    assert(math.abs(PairConfusion(0, 5, 5, 0).mcc + 1.0) < 1e-9)
    assert(PairConfusion(0, 0, 0, 0).mcc == 0.0)
  }

  test("paper Appendix D arithmetic: recall 25/47") {
    val c = PairConfusion(tp = 25, fp = 0, fn = 22, tn = 100)
    assert(c.precision == 1.0)
    assert(math.abs(c.recall - 25.0 / 47) < 1e-9)
  }

  test("pairConfusion agrees with the DuckDB oracle") {
    val v = values((1, 1, "a"), (1, 2, "a"), (1, 3, "b"), (2, 4, "x"), (2, 5, "x"), (2, 6, null), (2, 7, null))
    val p = pairs((1, 1, 2, true), (1, 1, 3, true), (1, 2, 3, false), (2, 4, 5, false),
      (2, 4, 6, true), (2, 6, 7, true), (2, 6, 7, false))
    val c = Metrics.pairConfusion(spark, v, p)
    import spark.implicits._
    val got = Seq((c.tp, c.fp, c.fn, c.tn)).toDF("tp", "fp", "fn", "tn")
      .select(col("tp").cast("string"), col("fp").cast("string"),
        col("fn").cast("string"), col("tn").cast("string"))
    val sql =
      """
        |SELECT
        |  CAST(SUM(CASE WHEN positive = 'true'  AND v1.value IS NOT DISTINCT FROM v2.value THEN 1 ELSE 0 END) AS VARCHAR) AS tp,
        |  CAST(SUM(CASE WHEN positive = 'false' AND v1.value IS NOT DISTINCT FROM v2.value THEN 1 ELSE 0 END) AS VARCHAR) AS fp,
        |  CAST(SUM(CASE WHEN positive = 'true'  AND v1.value IS DISTINCT FROM v2.value THEN 1 ELSE 0 END) AS VARCHAR) AS fn,
        |  CAST(SUM(CASE WHEN positive = 'false' AND v1.value IS DISTINCT FROM v2.value THEN 1 ELSE 0 END) AS VARCHAR) AS tn
        |FROM p
        |JOIN v v1 ON p.cluster = v1.cluster AND p.rid1 = v1.recordId
        |JOIN v v2 ON p.cluster = v2.cluster AND p.rid2 = v2.recordId
        |""".stripMargin
    Oracle.assertEquivalent(got, sql, "p" -> p, "v" -> v)
  }

  test("mcPrecision: correct golden, wrong golden, and tie") {
    import spark.implicits._
    val records = Seq(
      // cluster 1: value "a" majority, its holders are entity 10 = cluster majority -> TP
      (1L, 1L, "a", 10L), (1L, 2L, "a", 10L), (1L, 3L, "b", 11L),
      // cluster 2: golden "x" held by entity 21, but majority entity is 20 -> FP
      (2L, 4L, "x", 21L), (2L, 5L, "x", 21L), (2L, 6L, "y", 20L),
      (2L, 7L, "z", 20L), (2L, 8L, "w", 20L),
      // cluster 3: tie -> no golden -> FP
      (3L, 9L, "p", 30L), (3L, 10L, "q", 30L),
    ).toDF("cluster", "recordId", "value", "entityId")
    val p = Metrics.mcPrecision(spark, records, Seq(1L, 2L, 3L))
    assert(math.abs(p - 1.0 / 3) < 1e-9, p)
  }

  test("mcPrecision: smallest entity id wins a tie, NULL golden is FP") {
    import spark.implicits._
    val records = Seq(
      // cluster 1: golden "a" held by entities 12 and 11 -> 11; cluster entities 11 and 12 tie -> 11 -> TP
      (1L, 1L, "a", 12L), (1L, 2L, "a", 11L), (1L, 3L, "b", 12L), (1L, 10L, "c", 11L),
      // cluster 2: golden "x" held by entities 21 and 22 -> 21; cluster majority 22 -> FP
      (2L, 4L, "x", 22L), (2L, 5L, "x", 21L), (2L, 6L, "y", 22L),
      // cluster 3: NULL majority -> NULL golden -> FP
      (3L, 7L, null, 30L), (3L, 8L, null, 30L), (3L, 9L, "p", 30L),
    ).toDF("cluster", "recordId", "value", "entityId")
    val p = Metrics.mcPrecision(spark, records, Seq(1L, 2L, 3L))
    assert(math.abs(p - 1.0 / 3) < 1e-9, p)
  }

  test("mcPrecision is 1.0 when every cluster has a clean majority") {
    import spark.implicits._
    val records = Seq(
      (1L, 1L, "a", 1L), (1L, 2L, "a", 1L),
      (2L, 3L, "b", 2L), (2L, 4L, "b", 2L), (2L, 5L, "c", 3L),
    ).toDF("cluster", "recordId", "value", "entityId")
    assert(Metrics.mcPrecision(spark, records, Seq(1L, 2L)) == 1.0)
  }

  test("mcPrecision only scores the sampled clusters") {
    import spark.implicits._
    val records = Seq(
      (1L, 1L, "a", 1L), (1L, 2L, "a", 1L),
      (9L, 3L, "x", 2L), (9L, 4L, "y", 3L), // tie, but not sampled
    ).toDF("cluster", "recordId", "value", "entityId")
    assert(Metrics.mcPrecision(spark, records, Seq(1L)) == 1.0)
  }
}
