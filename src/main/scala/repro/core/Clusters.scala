package repro.core

import org.apache.spark.sql.{Dataset, Encoder, SparkSession}
import org.apache.spark.sql.functions.col
import scala.collection.mutable

/** The one per-cluster shuffle behind rule mining, rule application and
  * majority consensus.
  */
object Clusters {

  /** Run `f` once per cluster of `rows`, a Dataset with a `cluster` column
    * that `cluster` reads from each row; `f` gets the cluster id and the
    * cluster's rows. The rows are shuffled by cluster into
    * `defaultParallelism` partitions: a repartition to a fixed number is never
    * coalesced by adaptive execution, so the stage that runs `f` keeps one
    * task per core. A partition's rows are held in memory while they are
    * grouped, clusters in order of first appearance.
    */
  def perCluster[R, U: Encoder](spark: SparkSession, rows: Dataset[R])(cluster: R => Long)
                               (f: (Long, Vector[R]) => IterableOnce[U]): Dataset[U] =
    rows.repartition(spark.sparkContext.defaultParallelism, col("cluster"))
      .mapPartitions { it =>
        val groups = mutable.LinkedHashMap.empty[Long, mutable.Builder[R, Vector[R]]]
        for (r <- it) groups.getOrElseUpdate(cluster(r), Vector.newBuilder[R]) += r
        groups.iterator.flatMap { case (c, rs) => f(c, rs.result()) }
      }
}
