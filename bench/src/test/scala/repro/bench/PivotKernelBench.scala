package repro.bench

import java.lang.management.ManagementFactory
import java.util.concurrent.{Callable, Executors}
import repro.core.{BestDir, RuleGen, Selection}
import repro.core.lang.{Pivot, PivotConfig, ProgGroup}
import repro.data.ConsolidationGen
import repro.exp.{Experiments, Table}
import repro.exp.Table.{Column, Row}
import scala.jdk.CollectionConverters._

/** The pivot-grouping kernel on its own: `Pivot.groupByPrograms` over every
  * structure pool of JournalTitle at sf 0.08 (the perfbench `journal-both`
  * workload, θ = 4), outside Spark. Reports, as the median of `Repeats`
  * passes after `Warmup` passes, the summed thread CPU, the wall time and
  * the bytes allocated of one sequential pass, and the wall time of one
  * pass on `Threads` threads; then Table 4.
  *
  * "MB alloc" falls into one of two modes per JVM run, about 2 MB apart for
  * the same code (e.g. 108.0/99.3/102.2 against 110.0/101.1/104.0 per
  * seed), so one run per side cannot resolve a smaller allocation change:
  * compare runs of one mode.
  */
class PivotKernelBench extends BenchBase {
  import PivotKernelBench._

  test("PivotKernel: groupByPrograms over the journal-both structure pools") {
    warmedUp()
    val cfg  = PivotConfig(maxPathLen = 4)
    val exec = Executors.newFixedThreadPool(Threads)
    val rows =
      try for (seed <- Seeds) yield {
        val values = ConsolidationGen.journalTitle(spark, 0.08, seed).select("cluster", "recordId", "value")
        val trans  = Selection.select(RuleGen.generate(spark, values).keys.toSeq, BestDir)
        val pools  = trans.groupBy(_.structKey).toVector.sortBy(_._1).map(_._2)
        val freq   = Pivot.constTermFreq(trans.map(_.lhs), cfg.graph.maxConstTermLen)
        def sequential(): Vector[Vector[ProgGroup]] = pools.map(Pivot.groupByPrograms(_, cfg, freq))
        def parallel(): Vector[Vector[ProgGroup]] =
          exec.invokeAll(pools.map(p => (() => Pivot.groupByPrograms(p, cfg, freq)): Callable[Vector[ProgGroup]]).asJava)
            .asScala.map(_.get).toVector
        for (_ <- 1 to Warmup) { sequential(); parallel() }
        val expected = sequential()
        assert(parallel() == expected, s"seed $seed: groups differ between threads")
        val seq = Vector.fill(Repeats)(measure(sequential()))
        val par = Vector.fill(Repeats)(measure(parallel()))
        Row(Seq(seed.toString), Seq(pools.size.toDouble, trans.size.toDouble, median(seq.map(_.cpuNs)) / 1e6,
          median(seq.map(_.wallNs)) / 1e6, median(par.map(_.wallNs)) / 1e6, median(seq.map(_.bytes)) / 1e6))
      } finally exec.shutdown()

    report(Table(
      s"PivotKernel: groupByPrograms over the JournalTitle sf 0.08 structure pools, theta = 4\n" +
        s"(medians of $Repeats passes after $Warmup; CPU and bytes of the sequential pass)",
      Seq("seed"), Seq(Column("pools", 0), Column("trans", 0), Column("cpu ms", 1), Column("wall ms", 1),
        Column(s"${Threads}t ms", 1), Column("MB alloc", 1)), rows))
    report(Experiments.table4(spark, specs))
  }
}

object PivotKernelBench {
  private val Seeds   = Seq(1L, 2L, 3L)
  private val Warmup  = 10
  private val Repeats = 21
  private val Threads = 4

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  private final case class Pass(cpuNs: Long, wallNs: Long, bytes: Long)

  /** CPU and allocated bytes are the calling thread's. */
  private def measure(body: => Any): Pass = {
    val id = Thread.currentThread.getId
    val (c0, b0, w0) = (threads.getCurrentThreadCpuTime, threads.getThreadAllocatedBytes(id), System.nanoTime)
    body
    Pass(threads.getCurrentThreadCpuTime - c0, System.nanoTime - w0, threads.getThreadAllocatedBytes(id) - b0)
  }

  private def median(xs: Seq[Long]): Double = xs.sorted.apply(xs.size / 2).toDouble
}
