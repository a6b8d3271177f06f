package repro.core

import org.apache.spark.sql.SparkSession
import repro.core.lang.{Label, Pivot, PivotConfig}

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
      trans.sortBy(tr => (tr.lhs, tr.rhs)).toVector.map { tr =>
        RuleGroup(s"rule:${tr.lhs}${tr.rhs}", None, None, Vector(tr))
      }

    case StructAgg =>
      trans.groupBy(_.structKey).toVector.sortBy(_._1).map { case (sk, ms) =>
        RuleGroup(s"struct:$sk", Some(sk), None, ms.toVector.sortBy(tr => (tr.lhs, tr.rhs)))
      }

    case TransAgg => pivotGroups(spark, trans, cfg, byStructure = false)

    case BothAgg => pivotGroups(spark, trans, cfg, byStructure = true)
  }

  /** Distributed pivot grouping: split the transformations into pools (one
    * per structure, or a single pool) on the driver, bin-pack the pools onto
    * at most `defaultParallelism` slots, and run each slot's pivot searches
    * in one Spark task.
    */
  private def pivotGroups(spark: SparkSession, trans: Seq[Trans],
                          cfg: PivotConfig, byStructure: Boolean): Vector[RuleGroup] = {
    val pools = trans.groupBy(tr => if (byStructure) tr.structKey else "").toVector.sortBy(_._1)
    if (pools.isEmpty) return Vector.empty
    val globalFreq = Pivot.constTermFreq(trans.map(_.lhs), cfg.graph.maxConstTermLen)
    val slots      = binPack(pools, math.min(pools.size, spark.sparkContext.defaultParallelism))

    val searched = spark.sparkContext
      .parallelize(slots, slots.size)
      .flatMap(_.map { case (poolKey, pool) => poolKey -> Pivot.groupByPrograms(pool, cfg, globalFreq) })
      .collect()

    for ((poolKey, groups) <- searched.toVector.sortBy(_._1); g <- groups) yield RuleGroup(
      id = s"prog:${poolKey.length}:$poolKey:${g.pathKey}",
      structKey = if (byStructure) Some(poolKey) else None,
      path = Some(g.path),
      members = g.members.sortBy(tr => (tr.lhs, tr.rhs)),
    )
  }

  /** Deals the pools onto `n` slots, largest pool first onto the slot with the
    * fewest transformations so far, so the slots' tasks take similar time.
    */
  private def binPack(pools: Vector[(String, Seq[Trans])], n: Int): Vector[Vector[(String, Seq[Trans])]] = {
    val slots = Vector.fill(n)(Vector.newBuilder[(String, Seq[Trans])])
    val load  = new Array[Int](n)
    for (pool <- pools.sortBy(-_._2.size)) {
      val s = load.indices.minBy(load)
      slots(s) += pool
      load(s) += pool._2.size
    }
    slots.map(_.result())
  }

  /** Rank groups by aggregate frequency, descending (Section 6): the sum of
    * member rule frequencies, where a rule's frequency is the larger of its
    * two replacement-set sizes.
    */
  def rank(groups: Seq[RuleGroup], catalog: Map[RuleKey, MatchingRule]): Vector[RuleGroup] =
    groups.toVector.sortBy { g =>
      (-g.members.map(m => catalog.get(m.key).map(_.frequency).getOrElse(0)).sum, g.id)
    }
}
