package perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.core._

/** Wall times of one pass: review-ready (generate, select, group, rank),
  * finalize (apply, consensus) and the full pass.
  */
final case class PassTimes(reviewNs: Long, finalizeNs: Long, totalNs: Long)

/** Everything one Algorithm-1 pass produced, plus its times. `updated` and
  * `goldens` are sorted by key.
  */
final case class PassResult(
    catalog: Map[RuleKey, MatchingRule],
    trans: Vector[Trans],
    groups: Vector[RuleGroup],
    ranked: Vector[RuleGroup],
    decisions: Vector[Decision],
    shown: Int,
    updated: Vector[(Long, Long, String)],
    goldens: Vector[(Long, String)],
    times: PassTimes,
) {

  /** Identity of the outputs, compared across the passes of one run. */
  def digest: Seq[Int] =
    Seq(catalog.##, trans.##, ranked.##, decisions.##, shown, updated.##, goldens.##)
}

/** One full Algorithm-1 pass through the program's public functions, at the
  * workload's expert budget.
  */
object Pass {

  def run(spark: SparkSession, w: Workload, input: Input, tr: Tracer): PassResult = {
    var catalog: Map[RuleKey, MatchingRule] = null
    var trans: Vector[Trans]                = null
    var groups: Vector[RuleGroup]           = null
    var ranked: Vector[RuleGroup]           = null
    var confirmed: (Vector[Decision], Int)  = null
    var updated: DataFrame                  = null
    var goldens: Array[Row]                 = null

    val t0 = System.nanoTime()
    var t1, t2 = 0L
    tr("pass") {
      tr("review_ready") {
        catalog = tr("RuleGen.generate")(RuleGen.generate(spark, input.clusters))
        trans   = tr("Selection.select")(Selection.select(catalog.keys.toSeq, BestDir))
        groups  = tr("Grouping.group")(Grouping.group(spark, trans, w.agg, w.pivot))
        ranked  = tr("Grouping.rank")(Grouping.rank(groups, catalog))
      }
      t1 = System.nanoTime()
      confirmed = tr("Expert.confirmAll") {
        Expert.confirmAll(ranked, catalog, w.judge, Workloads.Budget, w.agg)
      }
      t2 = System.nanoTime()
      tr("finalize") {
        updated = tr("Applier.applyAll") {
          val initialKeys = catalog.keysIterator.map(Applier.keyString).toSet
          val df = Applier.applyAll(spark, input.clusters, confirmed._1, initialKeys).cache()
          df.count()
          df
        }
        goldens = tr("Consensus.majority")(Consensus.majority(spark, updated).collect())
      }
    }
    val t3 = System.nanoTime()

    val updatedRows = updated.collect().toVector
      .map(r => (r.getLong(0), r.getLong(1), r.getString(2)))
      .sorted
    updated.unpersist(blocking = true)
    val goldenRows = goldens.toVector
      .map(r => (r.getAs[Long]("cluster"), r.getAs[String]("golden")))
      .sortBy(_._1)
    PassResult(catalog, trans, groups, ranked, confirmed._1, confirmed._2, updatedRows, goldenRows,
      PassTimes(reviewNs = t1 - t0, finalizeNs = t3 - t2, totalNs = t3 - t0))
  }
}
