package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Distributed candidate matching-rule generation (Section 2, Step 1):
  * per-cluster pairwise LCS alignment runs data-parallel across clusters.
  */
object RuleGen {

  /** Generate all matching rules from a clusters DataFrame with columns
    * (cluster LONG, recordId LONG, value STRING): each cluster's rules are
    * mined in its task, and the driver merges them into one catalog.
    */
  def generate(spark: SparkSession, clusters: DataFrame): Map[RuleKey, MatchingRule] = {
    import spark.implicits._
    val rows = clusters.select("cluster", "value").as[(Long, String)]
    Rules.merge(Clusters.perCluster(spark, rows)(_._1) { (cid, rs) =>
      Rules.clusterRules(cid, rs.map(_._2)).valuesIterator
    }.collect())
  }

  /** Number of distinct within-cluster value pairs (the "distinct duplicate
    * pairs" statistic the paper reports per dataset). NULL values take part
    * in no pair.
    */
  def distinctDuplicatePairs(spark: SparkSession, clusters: DataFrame): Long = {
    import spark.implicits._
    clusters.select("cluster", "value").where($"value".isNotNull).distinct()
      .groupBy("cluster").count()
      .select(($"count" * ($"count" - 1) / 2).as[Double])
      .collect()
      .map(_.toLong)
      .sum
  }
}
