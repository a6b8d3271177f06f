package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.collection.mutable

/** Truth-discovery substrate: majority consensus (MC). For each cluster the
  * golden value is the most frequent attribute value; a frequency tie means
  * MC cannot produce a golden value (Section 7.5) — the golden column is
  * NULL in that case. NULL counts as a value, so a NULL majority also gives
  * a NULL golden.
  */
object Consensus {

  /** `clusters`: (cluster LONG, recordId LONG, value STRING) →
    * (cluster LONG, golden STRING nullable). One shuffle by cluster
    * (`Clusters.perCluster`); the values are counted per cluster inside the
    * task.
    */
  def majority(spark: SparkSession, clusters: DataFrame): DataFrame = {
    import spark.implicits._
    val rows = clusters.select("cluster", "value").as[(Long, String)]
    Clusters.perCluster(spark, rows)(_._1) { (cluster, rs) =>
      Iterator.single((cluster, vote(rs.map(_._2))))
    }.toDF("cluster", "golden")
  }

  /** The golden value of one cluster's non-empty `values`: the most frequent
    * value, or NULL on a frequency tie.
    */
  def vote(values: Iterable[String]): String = {
    val counts = mutable.HashMap.empty[String, Int]
    for (v <- values) counts(v) = counts.getOrElse(v, 0) + 1
    val top = counts.valuesIterator.max
    counts.filter(_._2 == top).keys.toSeq match {
      case Seq(v) => v
      case _      => null
    }
  }
}
