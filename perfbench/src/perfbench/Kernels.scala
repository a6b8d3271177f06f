package perfbench

import java.lang.management.ManagementFactory
import repro.core._
import repro.core.lang.{GraphBuilder, Pivot, ProgGroup}
import scala.collection.parallel.CollectionConverters._

/** The program's in-process kernels re-run sequentially on the driver,
  * outside Spark, timed in thread CPU time so compute can be told apart from
  * Spark overhead.
  */
object Kernels {

  private val threads = ManagementFactory.getThreadMXBean

  def cpuNs(): Long = threads.getCurrentThreadCpuTime

  private def timed[T](body: => T): (T, Long) = {
    val c0 = cpuNs()
    val r  = body
    (r, cpuNs() - c0)
  }

  /** `Pivot.groupByPrograms` over one pool; `key` is the pool's structure. */
  final case class PoolRun(key: String, size: Int, groups: Vector[ProgGroup], cpuNs: Long)

  /** The pools `Grouping.group` searches: one per structure for BothAgg,
    * none for the workloads' other method, NoAgg.
    */
  def pools(trans: Vector[Trans], agg: AggMethod): Vector[(String, Vector[Trans])] =
    if (agg == BothAgg) trans.groupBy(_.structKey).toVector.sortBy(_._1) else Vector.empty

  /** Runs the pools one after another when `sequential`, else on all cores
    * (CPU time is per pool either way).
    */
  def groupPools(trans: Vector[Trans], w: Workload, sequential: Boolean): Vector[PoolRun] = {
    val freq = Pivot.constTermFreq(trans.map(_.lhs), w.pivot.graph.maxConstTermLen)
    def run(key: String, pool: Vector[Trans]): PoolRun = {
      val (groups, ns) = timed(Pivot.groupByPrograms(pool, w.pivot, freq))
      PoolRun(key, pool.size, groups, ns)
    }
    val ps = pools(trans, w.agg)
    if (sequential) ps.map((run _).tupled)
    else ps.par.map((run _).tupled).seq.toVector
  }

  /** `GraphBuilder.build` for every graph `Pivot.groupByPrograms` builds:
    * the transformations within `maxSideLen` of pools with at least two
    * distinct members. Returns (graphs, edge labels, CPU ns).
    */
  def buildGraphs(trans: Vector[Trans], w: Workload): (Int, Long, Long) = {
    val cfg  = w.pivot.graph
    val freq = Pivot.constTermFreq(trans.map(_.lhs), cfg.maxConstTermLen)
    var graphs, labels, ns = 0L
    for ((_, pool) <- pools(trans, w.agg)) {
      val distinct = pool.distinct.sortBy(t => (t.lhs, t.rhs))
      if (distinct.size > 1) {
        val searchable = distinct.filter(t => t.lhs.length <= cfg.maxSideLen && t.rhs.length <= cfg.maxSideLen)
        val score = Pivot.constScoreFn(Pivot.constTermFreq(searchable.map(_.lhs), cfg.maxConstTermLen), freq)
        val (gs, t) = timed(searchable.zipWithIndex.map { case (tr, i) =>
          GraphBuilder.build(i, tr.lhs, tr.rhs, cfg, score)
        })
        graphs += gs.size
        labels += gs.iterator.flatMap(_.edges.valuesIterator).map(_.size.toLong).sum
        ns += t
      }
    }
    (graphs.toInt, labels, ns)
  }

  /** `Rules.clusterRules` per cluster; CPU ns summed over clusters. */
  def clusterRules(input: Input): Long =
    input.valuesByCluster.iterator.map { case (c, vs) => timed(Rules.clusterRules(c, vs))._2 }.sum

  /** `Applier.applyCluster` per cluster; CPU ns of each cluster. */
  def applyClusters(input: Input, p: PassResult): Vector[Long] = {
    val initialKeys = p.catalog.keysIterator.map(Applier.keyString).toSet
    input.records.groupBy(_.cluster).toVector.sortBy(_._1).map { case (c, rs) =>
      val records = rs.iterator.map(r => r.recordId -> r.value).toMap
      timed(Applier.applyCluster(c, records, p.decisions, initialKeys))._2
    }
  }
}
