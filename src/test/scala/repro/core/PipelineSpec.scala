package repro.core

import repro.{Oracle, SparkSpec}
import repro.data.{ConsolidationGen, Judges}
import org.apache.spark.sql.functions._

/** End-to-end integration tests of GoldenRecordCreation (Algorithm 1). */
class PipelineSpec extends SparkSpec {

  private def cfg(agg: AggMethod = BothAgg, budget: Int = 100) =
    PipelineConfig(agg = agg, budget = budget)

  test("paper Table 1 -> Table 3 on the address column") {
    import spark.implicits._
    val clusters = Seq(
      (1L, 1L, "9 st, 02141 wisconsin"),
      (1L, 2L, "9th st, 02141 wi"),
      (1L, 3L, "9 street, 02141 wi"),
      (2L, 4L, "3 e avenue, 33990 ca"),
      (2L, 5L, "3rd e ave, 33990 california"),
      (2L, 6L, "5th str, 22701 kansas"),
    ).toDF("cluster", "recordId", "value")

    val res = Pipeline.run(spark, clusters, Judges.address, cfg())
    val byCluster = res.updated.as[(Long, Long, String)].collect()
      .groupBy(_._1).view.mapValues(_.map(_._3).toSet).toMap

    // cluster 1 merges to a single representation
    assert(byCluster(1L).size == 1, byCluster)
    // cluster 2 keeps the unrelated Kansas record apart (paper Table 2)
    assert(byCluster(2L).size == 2, byCluster)

    // and MC then produces a golden record for both clusters
    val golden = Consensus.majority(spark, res.updated).collect()
      .map(r => r.getLong(0) -> Option(r.getString(1))).toMap
    assert(golden(1L).isDefined)
    assert(golden(2L).isDefined)
  }

  test("NULL values pass through the pipeline unchanged (DuckDB oracle)") {
    import spark.implicits._
    val clusters = Seq[(Long, Long, String)](
      (1L, 1L, "9 st, 02141 wisconsin"),
      (1L, 2L, null),
      (1L, 3L, "9th st, 02141 wi"),
      (1L, 4L, "9 street, 02141 wi"),
      (2L, 5L, null),
      (2L, 6L, "3rd e ave, 33990 california"),
    ).toDF("cluster", "recordId", "value")

    val res = Pipeline.run(spark, clusters, Judges.address, cfg())
    assert(res.decisions.nonEmpty)
    val got = res.updated.where(col("value").isNull)
      .select(col("cluster").cast("string").as("cluster"), col("recordId").cast("string").as("recordId"))
    val sql = "SELECT cluster, recordId FROM t WHERE value IS NULL"
    Oracle.assertEquivalent(got, sql, "t" -> clusters)
    // the other rows of cluster 1 still merge
    assert(res.updated.where(col("cluster") === 1 && col("value").isNotNull)
      .select("value").distinct().count() == 1)
  }

  test("values holding the structure-key separator go through the pipeline (DuckDB oracle)") {
    import spark.implicits._
    val clusters = Seq[(Long, Long, String)](
      (1L, 1L, "9 st, 02141 wisconsin"),
      (1L, 2L, "9th st,\u000102141 wi"),
      (1L, 3L, "9th st, 02141 wi"),
      (1L, 4L, "9 street, 02141 wi"),
      (2L, 5L, "a\u0001"), (2L, 6L, "b"), (2L, 7L, "b"),
      (3L, 8L, ""), (3L, 9L, "\u0001"), (3L, 10L, "\u0001"),
    ).toDF("cluster", "recordId", "value")

    val res = Pipeline.run(spark, clusters, Judges.address, cfg())
    assert(res.decisions.nonEmpty)
    assert(res.prepared.catalog.contains(RuleKey.of("a\u0001", "b")))
    assert(res.prepared.trans.size == res.prepared.catalog.size)
    assert(res.updated.select("cluster", "recordId").as[(Long, Long)].collect().toSet ==
      clusters.select("cluster", "recordId").as[(Long, Long)].collect().toSet)
    val got = Consensus.majority(spark, res.updated)
      .select(col("cluster").cast("string").as("cluster"), col("golden"))
    Oracle.assertEquivalent(got, ConsensusSpec.OracleSql, "t" -> res.updated)
  }

  test("prepare produces ranked groups with one member per rule") {
    val addr = ConsolidationGen.address(spark, 0.01)
    val prepared = Pipeline.prepare(spark, addr.select("cluster", "recordId", "value"), cfg())
    assert(prepared.catalog.nonEmpty)
    assert(prepared.trans.size == prepared.catalog.size)
    assert(prepared.ranked.flatMap(_.members).size == prepared.trans.size)
    // ranked by aggregate frequency, descending
    val freqs = prepared.ranked.map(g =>
      g.members.map(m => prepared.catalog.get(m.key).map(_.frequency).getOrElse(0)).sum)
    assert(freqs == freqs.sortBy(-_))
  }

  test("merging improves pair recall without destroying precision (address)") {
    val addr  = ConsolidationGen.address(spark, 0.02).cache()
    val vals  = addr.select("cluster", "recordId", "value")
    val pairs = ConsolidationGen.samplePairs(spark, addr, 800).cache()

    val before = Metrics.pairConfusion(spark, vals, pairs)
    val res    = Pipeline.run(spark, vals, Judges.address, cfg(budget = 60))
    val after  = Metrics.pairConfusion(spark, res.updated, pairs)

    assert(after.recall > before.recall + 0.15, s"before=$before after=$after")
    assert(after.precision > 0.9, s"after=$after")
    assert(after.mcc > before.mcc, s"before=$before after=$after")
  }

  test("BothAgg needs far fewer confirmations than NoAgg for the same recall") {
    val addr  = ConsolidationGen.address(spark, 0.015).cache()
    val vals  = addr.select("cluster", "recordId", "value")
    val pairs = ConsolidationGen.samplePairs(spark, addr, 600).cache()
    val budget = 30

    def recallAt(agg: AggMethod): Double = {
      val res = Pipeline.run(spark, vals, Judges.address, cfg(agg, budget))
      Metrics.pairConfusion(spark, res.updated, pairs).recall
    }
    val both = recallAt(BothAgg)
    val no   = recallAt(NoAgg)
    assert(both > no, s"BothAgg=$both NoAgg=$no")
  }

  test("MC precision improves after the pipeline (Table 5 shape)") {
    val addr = ConsolidationGen.address(spark, 0.02).cache()
    val vals = addr.select("cluster", "recordId", "value")
    val sample = ConsolidationGen.sampleClusters(spark, addr, 40)

    val before = Metrics.mcPrecision(spark, addr, sample)
    val res = Pipeline.run(spark, vals, Judges.address, cfg(budget = 80))
    val updatedWithEntity = res.updated
      .join(addr.select(col("recordId"), col("entityId")), Seq("recordId"))
    val after = Metrics.mcPrecision(spark, updatedWithEntity, sample)

    assert(after > before, s"before=$before after=$after")
  }

  test("zero budget leaves the data unchanged") {
    import spark.implicits._
    val clusters = Seq((1L, 1L, "9 st"), (1L, 2L, "9th st")).toDF("cluster", "recordId", "value")
    val res = Pipeline.run(spark, clusters, Judges.address, cfg(budget = 0))
    assert(res.decisions.isEmpty)
    assert(res.updated.as[(Long, Long, String)].collect().toSet ==
      Set((1L, 1L, "9 st"), (1L, 2L, "9th st")))
  }

  test("journal pipeline merges abbreviation variants") {
    import spark.implicits._
    val clusters = Seq(
      (1L, 1L, "journal of applied science"), (1L, 2L, "j. of applied sci."),
      (2L, 3L, "annals of medicine"), (2L, 4L, "ann. of med."),
      (3L, 5L, "journal of clinical surgery"), (3L, 6L, "j. of clin. surg."),
    ).toDF("cluster", "recordId", "value")
    val res = Pipeline.run(spark, clusters, Judges.journalTitle, cfg())
    val merged = res.updated.as[(Long, Long, String)].collect()
      .groupBy(_._1).view.mapValues(_.map(_._3).toSet).toMap
    assert(merged.values.count(_.size == 1) >= 2, merged)
  }
}
