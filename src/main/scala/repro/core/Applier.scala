package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.lang.PathCheck
import scala.collection.mutable

/** Applying approved matching-rule groups to the clusters (Section 6),
  * including the incremental maintenance the paper describes: the rules of a
  * cluster are indexed by key once per cluster state, and that index is
  * rebuilt from the current value pairs after every change, so newly
  * generated rules that fall into an already-approved group are applied
  * directly. Only decisions that adopt such rules consult the initial
  * catalog's keys, and `applyAll` ships those keys only when one does.
  */
object Applier {

  /** Passes over the decision list (a later application can spawn a rule
    * adoptable by an earlier decision); bounded for termination.
    */
  private[core] val MaxPasses = 4

  /** Max single-rule applications per decision per pass; safety valve. */
  private[core] val MaxAppsPerPass = 500

  /** Apply the decisions to one cluster. `initialKeys` is the set of rule
    * keys that existed in the initial catalog: those only apply through the
    * group they were assigned to (`memberDirs`), while *new* keys may be
    * adopted by any approved group whose criteria they satisfy
    * (`Decision.adopts`; `initialKeys` is not read for other decisions).
    * NULL values take part in no rule and stay NULL.
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

    // Whether a key was in the initial catalog, looked up once per key.
    val initial = mutable.HashMap.empty[RuleKey, Boolean]
    def isInitial(key: RuleKey): Boolean = initial.getOrElseUpdate(key, initialKeys(keyString(key)))

    /** The current pairs' rules by key, shared by every decision until a
      * value is rewritten. `fresh` holds its keys outside the initial
      * catalog: the only keys a decision may adopt.
      */
    final class RuleIndex {
      val rules = mutable.HashMap.empty[RuleKey, List[MatchingRule]]
      for ((v1, v2) <- Rules.valuePairs(state.values);
           rule     <- pairCache.getOrElseUpdate((v1, v2), Rules.pairRules(cluster, v1, v2)))
        rules.updateWith(rule.key)(rs => Some(rule :: rs.getOrElse(Nil)))
      lazy val fresh: Vector[RuleKey] = rules.keysIterator.filterNot(isInitial).toVector
    }
    var index: RuleIndex = null // dropped whenever a value is rewritten

    /** The next replacement `d` makes, as (old value, new value): of the
      * occurrences `d` may replace in the current rules, the first in
      * (rule key, value, position) order whose replacement changes its value.
      * A side's text fixes an occurrence's span end, so the order is total.
      * A key applies through `memberDirs` or, if `d` adopts and the key is
      * not in the initial catalog, through adoption.
      */
    def nextHit(d: Decision): Option[(String, String)] = {
      if (index == null) index = new RuleIndex
      val rules = index.rules
      val members =
        if (d.memberDirs.size <= rules.size) d.memberDirs.iterator.filter(kv => rules.contains(kv._1))
        else rules.keysIterator.flatMap(k => d.memberDirs.get(k).map(k -> _))
      val adopted =
        if (!d.adopts) Iterator.empty
        else index.fresh.iterator.filterNot(d.memberDirs.contains).flatMap(k => adopt(k, d).map(k -> _))
      val keys = (members ++ adopted).toVector.sortBy { case (k, _) => (k.a, k.b) }
      keys.iterator.flatMap { case (k, dirAIsLhs) =>
        val replaceA = dirAIsLhs == d.forward // forward: replace lhs occurrences with rhs
        val repl     = if (replaceA) k.b else k.a
        rules(k).flatMap(r => if (replaceA) r.occA else r.occB).sortBy(o => (o.value, o.p)).iterator
          .map(o => (o.value, Tokens.applyReplacement(o.value, o.p, o.q, repl)))
      }.find { case (v, nv) => nv != v }
    }

    def applyDecision(d: Decision): Boolean = {
      var apps = 0
      var done = false
      while (!done && apps < MaxAppsPerPass) nextHit(d) match {
        case Some((value, newValue)) =>
          state.mapValuesInPlace((_, v) => if (v == value) newValue else v)
          index = null
          apps += 1
        case None => done = true
      }
      apps > 0
    }

    val ranked  = decisions.sortBy(_.rank)
    var pass    = 0
    var changed = true
    while (changed && pass < MaxPasses) {
      changed = false
      for (d <- ranked) if (applyDecision(d)) changed = true
      pass += 1
    }
    state.toMap
  }

  /** Distributed application: clusters are shuffled by id into
    * `defaultParallelism` partitions (`Clusters.perCluster`), so the apply
    * tasks and every later read of the (typically cached) table run one task
    * per core. `clusters` has columns (cluster LONG, recordId LONG, value
    * STRING).
    */
  def applyAll(spark: SparkSession, clusters: DataFrame,
               decisions: Seq[Decision], initialKeys: Set[String]): DataFrame = {
    import spark.implicits._
    val bcDecisions = spark.sparkContext.broadcast(decisions.toVector)
    // Only adopting decisions read the initial keys.
    val keys        = if (decisions.exists(_.adopts)) initialKeys else Set.empty[String]
    val bcKeys      = spark.sparkContext.broadcast(keys)
    val rows        = clusters.select("cluster", "recordId", "value").as[(Long, Long, String)]
    Clusters.perCluster(spark, rows)(_._1) { (cid, rs) =>
      val records = rs.iterator.map { case (_, rid, v) => rid -> v }.toMap
      val updated = applyCluster(cid, records, bcDecisions.value, bcKeys.value.contains)
      updated.iterator.map { case (rid, v) => (cid, rid, v) }
    }.toDF("cluster", "recordId", "value")
  }

  /** Encode a rule key for the broadcast initial-keys set. The length prefix
    * makes the encoding injective whatever characters the sides hold.
    */
  def keyString(k: RuleKey): String = s"${k.a.length}:${k.a}${k.b}"
}
