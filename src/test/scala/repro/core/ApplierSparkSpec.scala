package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.data.{ConsolidationGen, Judges}

/** Distributed application tests: Applier.applyAll over many clusters. */
class ApplierSparkSpec extends SparkSpec {

  private def run(rows: Seq[(Long, Long, String)], budget: Int = 100): Map[Long, String] = {
    import spark.implicits._
    val df  = rows.toDF("cluster", "recordId", "value")
    val res = Pipeline.run(spark, df, Judges.address, PipelineConfig(budget = budget))
    res.updated.as[(Long, Long, String)].collect().map(r => r._2 -> r._3).toMap
  }

  test("applyAll preserves every record exactly once") {
    import spark.implicits._
    val rows = Seq(
      (1L, 1L, "9 st"), (1L, 2L, "9th st"),
      (2L, 3L, "5 ave"), (2L, 4L, "5th avenue"), (2L, 5L, "unrelated thing"))
    val df = rows.toDF("cluster", "recordId", "value")
    val res = Pipeline.run(spark, df, Judges.address, PipelineConfig())
    val out = res.updated.as[(Long, Long, String)].collect()
    assert(out.length == rows.length)
    assert(out.map(_._2).toSet == rows.map(_._2).toSet)
    assert(out.map(_._1).toSet == Set(1L, 2L))
  }

  test("rules learned in one cluster apply in another via shared groups") {
    // 9 <-> 9th appears in clusters 1 and 2; approving its group once merges both
    val out = run(Seq(
      (1L, 1L, "9 st"), (1L, 2L, "9th st"),
      (2L, 3L, "9 ave"), (2L, 4L, "9th ave")))
    assert(out(1L) == out(2L))
    assert(out(3L) == out(4L))
  }

  test("values never leak across clusters") {
    val out = run(Seq(
      (1L, 1L, "9 st"), (1L, 2L, "9th st"),
      (2L, 3L, "7 rd")))
    assert(out(3L) == "7 rd") // singleton cluster untouched
  }

  test("deterministic across runs") {
    val rows = Seq(
      (1L, 1L, "3 e avenue, 33990 ca"), (1L, 2L, "3rd e ave, 33990 california"),
      (2L, 3L, "9 st, 02141 wisconsin"), (2L, 4L, "9th street, 02141 wi"))
    assert(run(rows) == run(rows))
  }

  /** `applyAll` against `applyCluster` mapped over the clusters in-process
    * with the full initial-key set.
    */
  private def checkAgainstInProcess(generated: DataFrame, cfg: PipelineConfig, judge: RuleJudge): Unit = {
    import spark.implicits._
    val clusters = generated.select("cluster", "recordId", "value").cache()
    val prepared = Pipeline.prepare(spark, clusters, cfg)
    val (decisions, _) = Expert.confirmAll(prepared.ranked, prepared.catalog, judge, cfg.budget, cfg.agg)
    val initialKeys = prepared.catalog.keysIterator.map(Applier.keyString).toSet
    assert(decisions.nonEmpty)

    val rows = clusters.as[(Long, Long, String)].collect().toVector
    val local = rows.groupBy(_._1).toVector.flatMap { case (cid, rs) =>
      Applier.applyCluster(cid, rs.map(r => r._2 -> r._3).toMap, decisions, initialKeys.contains)
        .map { case (rid, v) => (cid, rid, v) }
    }
    val distributed = Applier.applyAll(spark, clusters, decisions, initialKeys)
      .as[(Long, Long, String)].collect().toVector
    assert(distributed.sorted == local.sorted)
    assert(local.count(r => !rows.contains(r)) > 0) // some values changed
    clusters.unpersist()
  }

  test("applyAll equals applyCluster mapped over the clusters in-process") {
    checkAgainstInProcess(ConsolidationGen.journalTitle(spark, sf = 0.01, seed = 3),
      PipelineConfig(pivot = GroupingGoldenSpec.pivotConfig("JournalTitle")), Judges.journalTitle)
  }

  test("NoAgg: applyAll, which ships no initial keys, equals applyCluster given them") {
    checkAgainstInProcess(ConsolidationGen.authorList(spark, sf = 0.03, seed = 3),
      PipelineConfig(agg = NoAgg, pivot = GroupingGoldenSpec.pivotConfig("AuthorList")), Judges.authorList)
  }

  test("empty decisions pass through distributed path") {
    val out = run(Seq((1L, 1L, "a b"), (1L, 2L, "c d")), budget = 0)
    assert(out == Map(1L -> "a b", 2L -> "c d"))
  }
}
