package repro.core

import repro.{Oracle, SparkSpec}
import org.apache.spark.sql.functions._

class ConsensusSpec extends SparkSpec {

  private def df(rows: (Long, Long, String)*) = {
    import spark.implicits._
    rows.toDF("cluster", "recordId", "value")
  }

  test("majority picks the most frequent value") {
    val in  = df((1, 1, "a"), (1, 2, "a"), (1, 3, "b"))
    val out = Consensus.majority(spark, in).collect()
    assert(out.length == 1)
    assert(out(0).getLong(0) == 1 && out(0).getString(1) == "a")
  }

  test("tie produces a NULL golden value") {
    val in  = df((1, 1, "a"), (1, 2, "b"))
    val out = Consensus.majority(spark, in).collect()
    assert(out.length == 1 && out(0).isNullAt(1))
  }

  test("vote: most frequent value, NULL a value, NULL on a tie") {
    assert(Consensus.vote(Seq("a", "b", "a")) == "a")
    assert(Consensus.vote(Seq(null, "b", null)) == null)
    assert(Consensus.vote(Seq(null, "b", null, "b", "c")) == null)
    assert(Consensus.vote(Seq(null, "b", "b")) == "b")
    assert(Consensus.vote(Seq("only")) == "only")
  }

  test("per-cluster independence") {
    val in  = df((1, 1, "a"), (1, 2, "a"), (2, 3, "x"), (2, 4, "y"), (3, 5, "only"))
    val out = Consensus.majority(spark, in).collect().map(r =>
      r.getLong(0) -> Option(r.getString(1))).toMap
    assert(out == Map(1L -> Some("a"), 2L -> None, 3L -> Some("only")))
  }

  test("paper Table 2 -> Table 3: MC after transformation finds the golden records") {
    val in = df(
      (1, 1, "9th Street, 02141 WI"), (1, 2, "9th Street, 02141 WI"), (1, 3, "9th Street, 02141 WI"),
      (2, 4, "3rd E Avenue, 33990 CA"), (2, 5, "3rd E Avenue, 33990 CA"), (2, 6, "5th Str, 22701 New York"))
    val out = Consensus.majority(spark, in).collect().map(r =>
      r.getLong(0) -> Option(r.getString(1))).toMap
    assert(out == Map(1L -> Some("9th Street, 02141 WI"), 2L -> Some("3rd E Avenue, 33990 CA")))
  }

  test("a NULL majority gives a NULL golden value") {
    val in  = df((1, 1, null), (1, 2, null), (1, 3, "a"))
    val out = Consensus.majority(spark, in).collect()
    assert(out.length == 1 && out(0).getLong(0) == 1 && out(0).isNullAt(1))
  }

  test("a NULL-vs-value tie gives a NULL golden value") {
    val in  = df((1, 1, null), (1, 2, "a"), (2, 3, "b"), (2, 4, "b"), (2, 5, null))
    val out = Consensus.majority(spark, in).collect().map(r =>
      r.getLong(0) -> Option(r.getString(1))).toMap
    assert(out == Map(1L -> None, 2L -> Some("b")))
  }

  test("a cluster of NULLs only gives one row with a NULL golden value") {
    val out = Consensus.majority(spark, df((7, 1, null), (7, 2, null))).collect()
    assert(out.length == 1 && out(0).getLong(0) == 7 && out(0).isNullAt(1))
  }

  test("majority agrees with the DuckDB oracle") {
    val in = df(
      (1, 1, "a"), (1, 2, "a"), (1, 3, "b"),
      (2, 4, "x"), (2, 5, "y"),
      (3, 6, "q"), (3, 7, "q"), (3, 8, "q"), (3, 9, "r"), (3, 10, "r"))
    val got = Consensus.majority(spark, in)
      .select(col("cluster").cast("string").as("cluster"), col("golden"))
    Oracle.assertEquivalent(got, ConsensusSpec.OracleSql, "t" -> in)
  }

  test("majority agrees with the DuckDB oracle on random clusters with NULLs and ties") {
    val rnd  = new scala.util.Random(5)
    val rows = for {
      c <- 1 to 600
      r <- 1 to 1 + rnd.nextInt(7)
    } yield (c.toLong, c * 10L + r, Seq("a", "b", "c", null)(rnd.nextInt(4)))
    val in  = df(rows: _*)
    val got = Consensus.majority(spark, in.repartition(16))
      .select(col("cluster").cast("string").as("cluster"), col("golden"))
    Oracle.assertEquivalent(got, ConsensusSpec.OracleSql, "t" -> in)
    assert(got.where(col("golden").isNull).count() > 100) // ties and NULL majorities occur
  }

  test("empty input yields empty output") {
    val in = df()
    assert(Consensus.majority(spark, in).collect().isEmpty)
  }
}

object ConsensusSpec {

  /** MC in SQL over table `t`: the single most frequent value per cluster,
    * NULL on a tie.
    */
  val OracleSql: String =
    """
      |WITH counts AS (
      |  SELECT cluster, value, COUNT(*) AS cnt FROM t GROUP BY cluster, value
      |), m AS (
      |  SELECT cluster, MAX(cnt) AS mx FROM counts GROUP BY cluster
      |), top AS (
      |  SELECT c.cluster, c.value FROM counts c JOIN m ON c.cluster = m.cluster AND c.cnt = m.mx
      |)
      |SELECT cluster, CASE WHEN COUNT(*) = 1 THEN MIN(value) ELSE NULL END AS golden
      |FROM top GROUP BY cluster
      |""".stripMargin
}
