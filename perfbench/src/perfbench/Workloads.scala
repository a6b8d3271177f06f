package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{AggMethod, BothAgg, NoAgg}
import repro.core.lang.PivotConfig
import repro.data.{ConsolidationGen, DictJudge, GenRecord, Judges}

/** One workload: a synthetic stand-in dataset at a fixed scale factor, run
  * through Algorithm 1 with one aggregation method, BestDir and budget 100.
  * `theta` is the paper's maximum path length for the dataset.
  */
final case class Workload(
    name: String,
    dataset: String,
    sf: Double,
    agg: AggMethod,
    theta: Int,
    judge: DictJudge,
    gen: (SparkSession, Double, Long) => DataFrame,
) {
  def pivot: PivotConfig = PivotConfig(maxPathLen = theta)
}

/** The generated input of one run. `records` keeps the generator's entity
  * ids as ground truth; the program only ever sees `clusters`, the cached
  * `(cluster, recordId, value)` table.
  */
final case class Input(records: Vector[GenRecord], clusters: DataFrame) {
  lazy val valuesByCluster: Map[Long, Vector[String]] =
    records.groupMap(_.cluster)(_.value)
}

object Workloads {

  final val Budget = 100

  /** Why these two (README.md has the sizes, and why Address/TransAgg is
    * not among them):
    *  - journal-both: many small structure pools searched in parallel tasks;
    *  - author-noagg: the paper's Table 6 AuthorList size, no pivot search, so
    *    rule mining, ranking and Applier/Consensus over 32k rows dominate.
    */
  val all: Vector[Workload] = Vector(
    Workload("journal-both", "JournalTitle", 0.08, BothAgg, 4, Judges.journalTitle,
      ConsolidationGen.journalTitle(_, _, _)),
    Workload("author-noagg", "AuthorList", 1.0, NoAgg, 5, Judges.authorList,
      ConsolidationGen.authorList(_, _, _)),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** Generate the workload's input from `seed` and cache the program's view
    * of it.
    */
  def load(spark: SparkSession, w: Workload, seed: Long): Input = {
    import spark.implicits._
    val records = w.gen(spark, w.sf, seed).as[GenRecord].collect().toVector
      .sortBy(r => (r.cluster, r.recordId))
    val clusters = records.map(r => (r.cluster, r.recordId, r.value))
      .toDF("cluster", "recordId", "value")
      .cache()
    clusters.count()
    Input(records, clusters)
  }
}
