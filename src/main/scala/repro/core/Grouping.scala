package repro.core

import org.apache.spark.sql.SparkSession
import repro.core.lang.{GraphConfig, Label, Pivot, PivotConfig}

/** Aggregation methods compared in Section 7.1. */
sealed trait AggMethod extends Serializable
case object NoAgg     extends AggMethod
case object StructAgg extends AggMethod
case object TransAgg  extends AggMethod
case object BothAgg   extends AggMethod

/** A group of matching rules presented to the expert in bulk (Steps 3–4).
  * `structKey`/`path` describe the grouping criteria used, so newly generated
  * rules can be adopted into an approved group later (Section 6).
  */
final case class RuleGroup(
    id: String,
    structKey: Option[String],
    path: Option[Vector[Label]],
    members: Vector[Trans],
)

object Grouping {

  /** Aggregate the selected transformations into rule groups.
    *
    * BothAgg distributes the per-structure-group pivot search across Spark
    * tasks; TransAgg is a single pool (a single task) — this is exactly why
    * the paper's Table 4 shows TransAgg an order of magnitude slower.
    */
  def group(spark: SparkSession, trans: Seq[Trans], method: AggMethod,
            cfg: PivotConfig): Vector[RuleGroup] = method match {

    case NoAgg =>
      trans.sorted(Trans.ByText).toVector.map { tr =>
        RuleGroup(s"rule:${tr.lhs}${tr.rhs}", None, None, Vector(tr))
      }

    case StructAgg =>
      trans.groupBy(_.structKey).toVector.sortBy(_._1).map { case (sk, ms) =>
        RuleGroup(s"struct:$sk", Some(sk), None, ms.toVector.sorted(Trans.ByText))
      }

    case TransAgg => pivotGroups(spark, trans, cfg, byStructure = false)

    case BothAgg => pivotGroups(spark, trans, cfg, byStructure = true)
  }

  /** Distributed pivot grouping: split the transformations into pools (one
    * per structure, or a single pool) on the driver, bin-pack the pools onto
    * at most `defaultParallelism` slots by their `poolCost`, and run each
    * slot's pivot searches in one Spark task.
    */
  private def pivotGroups(spark: SparkSession, trans: Seq[Trans],
                          cfg: PivotConfig, byStructure: Boolean): Vector[RuleGroup] = {
    val pools = trans.groupBy(tr => if (byStructure) tr.structKey else "").toVector.sortBy(_._1)
    if (pools.isEmpty) return Vector.empty
    val globalFreq = Pivot.constTermFreq(trans.map(_.lhs), cfg.graph.maxConstTermLen)
    val slots = binPack(pools.map { case (k, p) => (k, p, poolCost(p, cfg.graph)) },
                        math.min(pools.size, spark.sparkContext.defaultParallelism))

    val searched = spark.sparkContext
      .parallelize(slots, slots.size)
      .flatMap(_.map { case (poolKey, pool) => poolKey -> Pivot.groupByPrograms(pool, cfg, globalFreq) })
      .collect()

    for ((poolKey, groups) <- searched.toVector.sortBy(_._1); g <- groups) yield RuleGroup(
      id = s"prog:${poolKey.length}:$poolKey:${g.pathKey}",
      structKey = if (byStructure) Some(poolKey) else None,
      path = Some(g.path),
      members = g.members.sorted(Trans.ByText),
    )
  }

  /** The estimated cost of `Pivot.groupByPrograms` on `pool`: Σ |lhs|·|rhs|²
    * over the distinct transformations it searches (`Pivot.searches`), plus
    * one per transformation. Over the journal-both structure pools of seeds
    * 1–3 it correlates 0.96–0.98 with the measured CPU time of each pool; the
    * pool's size correlates 0.86.
    */
  private[core] def poolCost(pool: Seq[Trans], cfg: GraphConfig): Long = {
    val distinct = pool.distinct
    distinct.iterator
      .filter(Pivot.searches(_, distinct.size, cfg))
      .map(tr => tr.lhs.length.toLong * tr.rhs.length * tr.rhs.length)
      .sum + pool.size
  }

  /** Deals `(key, pool, cost)` triples onto `n` slots, longest processing
    * time first: the costliest pool first (ties in input order), each onto
    * the slot with the least cost so far (the first such slot on a tie). The
    * costliest slot then exceeds the mean slot cost by at most one pool's
    * cost, so the slots' tasks take similar time.
    */
  private[core] def binPack(pools: Vector[(String, Seq[Trans], Long)], n: Int): Vector[Vector[(String, Seq[Trans])]] = {
    val slots = Vector.fill(n)(Vector.newBuilder[(String, Seq[Trans])])
    val load  = new Array[Long](n)
    for ((key, pool, cost) <- pools.sortBy(-_._3)) {
      var s = 0
      for (k <- 1 until n) if (load(k) < load(s)) s = k
      slots(s) += key -> pool
      load(s) += cost
    }
    slots.map(_.result())
  }

  /** Rank groups by aggregate frequency, descending (Section 6): the sum of
    * member rule frequencies, where a rule's frequency is the larger of its
    * two replacement-set sizes.
    */
  def rank(groups: Seq[RuleGroup], catalog: Map[RuleKey, MatchingRule]): Vector[RuleGroup] =
    groups.toVector
      .map(g => (g, g.members.iterator.map(m => catalog.get(m.key).fold(0)(_.frequency)).sum))
      .sortWith { case ((g1, f1), (g2, f2)) => f1 > f2 || (f1 == f2 && g1.id < g2.id) }
      .map(_._1)
}
