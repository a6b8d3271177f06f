package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Confusion counts over labeled within-cluster value pairs (Section 7.1):
  * a positive pair (same entity) reduced to one string is a TP; a negative
  * pair reduced to one string is an FP; etc.
  */
final case class PairConfusion(tp: Long, fp: Long, fn: Long, tn: Long) {
  def precision: Double = if (tp + fp == 0) 1.0 else tp.toDouble / (tp + fp)
  def recall: Double    = if (tp + fn == 0) 1.0 else tp.toDouble / (tp + fn)

  /** Matthews correlation coefficient, the paper's headline metric. */
  def mcc: Double = {
    val denom = math.sqrt((tp + fp).toDouble) * math.sqrt((tp + fn).toDouble) *
      math.sqrt((tn + fp).toDouble) * math.sqrt((tn + fn).toDouble)
    if (denom == 0) 0.0 else (tp.toDouble * tn - fp.toDouble * fn) / denom
  }
}

object Metrics {

  /** Evaluate duplicate merging on sampled record pairs. Two values are
    * one string iff they are equal or both NULL, the rule MC counts values
    * by.
    *
    * `values`: (cluster, recordId, value) — the (possibly updated) table.
    * `pairs`:  (cluster, rid1, rid2, positive BOOLEAN) — labeled sample.
    */
  def pairConfusion(spark: SparkSession, values: DataFrame, pairs: DataFrame): PairConfusion = {
    val v1 = values.select(col("cluster"), col("recordId").as("rid1"), col("value").as("v1"))
    val v2 = values.select(col("cluster"), col("recordId").as("rid2"), col("value").as("v2"))
    val joined = pairs.join(v1, Seq("cluster", "rid1")).join(v2, Seq("cluster", "rid2"))
    val same   = col("v1") <=> col("v2")
    val agg = joined.select(
      sum(when(col("positive") && same, 1L).otherwise(0L)).as("tp"),
      sum(when(!col("positive") && same, 1L).otherwise(0L)).as("fp"),
      sum(when(col("positive") && !same, 1L).otherwise(0L)).as("fn"),
      sum(when(!col("positive") && !same, 1L).otherwise(0L)).as("tn"),
    ).collect()(0)
    def g(i: Int): Long = if (agg.isNullAt(i)) 0L else agg.getLong(i)
    PairConfusion(g(0), g(1), g(2), g(3))
  }

  /** Precision of MC golden records against entity ground truth (Section 7.5).
    *
    * `records`: (cluster, recordId, value, entityId) — current table with the
    * generating entity of every record. A cluster's ground truth is its
    * majority entity. The golden value (`Consensus.vote`) is correct (TP) iff
    * the majority entity among the records currently holding that value is
    * the cluster's majority entity; a tie (no golden value) or a wrong entity
    * is an FP. Entity ties go to the smallest id.
    */
  def mcPrecision(spark: SparkSession, records: DataFrame, sampleClusters: Seq[Long]): Double = {
    import spark.implicits._
    val sample = records.where(col("cluster").isin(sampleClusters: _*))
      .select("cluster", "value", "entityId").as[(Long, String, Long)]
    def majorityEntity(rs: Iterable[(Long, String, Long)]): Long =
      rs.groupMapReduce(_._3)(_ => 1)(_ + _).minBy { case (e, n) => (-n, e) }._1
    val correct = Clusters.perCluster(spark, sample)(_._1) { (_, rs) =>
      val golden = Consensus.vote(rs.map(_._2))
      Iterator.single(golden != null && majorityEntity(rs.filter(_._2 == golden)) == majorityEntity(rs))
    }.collect()
    if (correct.isEmpty) 0.0 else correct.count(identity).toDouble / correct.length
  }
}
