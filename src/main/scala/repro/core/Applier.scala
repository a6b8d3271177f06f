package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.lang.PathCheck
import scala.collection.mutable

/** Applying approved matching-rule groups to the clusters (Section 6),
  * including the incremental maintenance the paper describes: after a value
  * changes, its matching rules are re-derived against the rest of the
  * cluster, and newly generated rules that fall into an already-approved
  * group are applied directly.
  */
object Applier {

  /** Passes over the decision list (a later application can spawn a rule
    * adoptable by an earlier decision); bounded for termination.
    */
  private[core] val MaxPasses = 4

  /** Max single-rule applications per cluster per pass; safety valve. */
  private[core] val MaxAppsPerPass = 500

  /** Apply the decisions to one cluster. `initialKeys` is the set of rule
    * keys that existed in the initial catalog: those only apply through the
    * group they were assigned to (`memberDirs`), while *new* keys may be
    * adopted by any approved group whose criteria they satisfy. NULL values
    * take part in no rule and stay NULL.
    */
  def applyCluster(cluster: Long, records: Map[Long, String],
                   decisions: Seq[Decision],
                   initialKeys: String => Boolean): Map[Long, String] = {
    if (decisions.isEmpty || records.size < 2) return records
    val state = mutable.HashMap.from(records)

    // A pair's rules depend only on its two values, so cached pairs never go
    // stale: after a change the pairs of the new value are simply looked up.
    val pairCache = mutable.HashMap.empty[(String, String), Vector[MatchingRule]]

    // Adoption decisions are stable for a given (rule, decision) pair.
    val adoptCache = mutable.HashMap.empty[(RuleKey, Int), Option[Boolean]]
    def adopt(key: RuleKey, d: Decision): Option[Boolean] =
      adoptCache.getOrElseUpdate((key, d.rank), {
        def matches(lhs: String, rhs: String): Boolean = d.method match {
          case NoAgg     => false
          case StructAgg => d.structKey.contains(Structure.ofTransformation(lhs, rhs))
          case TransAgg  => d.path.exists(p => PathCheck.consistent(p, lhs, rhs))
          case BothAgg =>
            d.structKey.contains(Structure.ofTransformation(lhs, rhs)) &&
              d.path.exists(p => PathCheck.consistent(p, lhs, rhs))
        }
        if (matches(key.a, key.b)) Some(true)
        else if (matches(key.b, key.a)) Some(false)
        else None
      })

    // Whether a key was in the initial catalog, looked up once per key: every
    // current pair's rules are checked on every replacement.
    val initial = mutable.HashMap.empty[RuleKey, Boolean]
    def directionFor(key: RuleKey, d: Decision): Option[Boolean] =
      d.memberDirs.get(key).orElse {
        if (initial.getOrElseUpdate(key, initialKeys(keyString(key)))) None else adopt(key, d)
      }

    /** The next replacement `d` makes, as (old value, new value): of the
      * occurrences `d` may replace in the current rules, the first in
      * (rule key, value, position) order whose replacement changes its value.
      * A side's text fixes an occurrence's span end, so the order is total.
      */
    def nextHit(d: Decision): Option[(String, String)] = {
      val replaceable = for {
        (v1, v2)  <- Rules.valuePairs(state.values)
        rule      <- pairCache.getOrElseUpdate((v1, v2), Rules.pairRules(cluster, v1, v2))
        dirAIsLhs <- directionFor(rule.key, d).iterator
        replaceA   = dirAIsLhs == d.forward // forward: replace lhs occurrences with rhs
        o         <- if (replaceA) rule.occA else rule.occB
      } yield (rule.key, o, if (replaceA) rule.key.b else rule.key.a)
      replaceable.toVector.sortBy { case (k, o, _) => (k.a, k.b, o.value, o.p) }.iterator
        .map { case (_, o, repl) => (o.value, Tokens.applyReplacement(o.value, o.p, o.q, repl)) }
        .find { case (v, nv) => nv != v }
    }

    def applyDecision(d: Decision): Boolean = {
      var apps = 0
      var done = false
      while (!done && apps < MaxAppsPerPass) nextHit(d) match {
        case Some((value, newValue)) =>
          state.mapValuesInPlace((_, v) => if (v == value) newValue else v)
          apps += 1
        case None => done = true
      }
      apps > 0
    }

    var pass    = 0
    var changed = true
    while (changed && pass < MaxPasses) {
      changed = false
      for (d <- decisions.sortBy(_.rank)) if (applyDecision(d)) changed = true
      pass += 1
    }
    state.toMap
  }

  /** Distributed application: clusters are shuffled by id and the result
    * comes back in `defaultParallelism` partitions, so the reduce tasks and
    * every later read of the (typically cached) table run one task per core.
    * `clusters` has columns (cluster LONG, recordId LONG, value STRING).
    */
  def applyAll(spark: SparkSession, clusters: DataFrame,
               decisions: Seq[Decision], initialKeys: Set[String]): DataFrame = {
    import spark.implicits._
    val bcDecisions = spark.sparkContext.broadcast(decisions.toVector)
    val bcKeys      = spark.sparkContext.broadcast(initialKeys)
    clusters
      .select("cluster", "recordId", "value").as[(Long, Long, String)]
      .groupByKey(_._1)
      .flatMapGroups { (cid, it) =>
        val records = it.map { case (_, rid, v) => rid -> v }.toMap
        val updated = applyCluster(cid, records, bcDecisions.value, bcKeys.value.contains)
        updated.iterator.map { case (rid, v) => (cid, rid, v) }
      }
      .toDF("cluster", "recordId", "value")
      .coalesce(spark.sparkContext.defaultParallelism)
  }

  /** Encode a rule key for the broadcast initial-keys set. The length prefix
    * makes the encoding injective whatever characters the sides hold.
    */
  def keyString(k: RuleKey): String = s"${k.a.length}:${k.a}${k.b}"
}
