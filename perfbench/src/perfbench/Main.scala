package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Path, Paths}
import org.apache.spark.ListenerDrain
import org.apache.spark.sql.SparkSession
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Runs one workload: set-up, untimed warm-up passes, timed passes for the
  * requested seconds, checks, and one JSON result line on stdout.
  *
  * Usage: perfbench.Main --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
  */
object Main {

  /** Rounds of session start plus input generation and caching; set-up time
    * reports their median plus the warm-up passes.
    */
  private val SetupRounds = 3

  /** Untimed full passes before timing: the first pass after start-up runs
    * up to twice as long as later ones while the JIT compiles.
    */
  private val WarmupPasses = 2

  private val MinTimedPasses = 3

  /** Spark task threads, pinned so runs on machines of different sizes use
    * the same parallelism.
    */
  private val TaskThreads = math.min(4, Runtime.getRuntime.availableProcessors)

  private final case class Metric(name: String, value: Double, unit: String)

  private val started = System.nanoTime()

  /** Progress on stderr, stamped with the seconds since start. */
  private def log(msg: String): Unit =
    System.err.println(f"[perfbench ${(System.nanoTime() - started) / 1e9}%7.2fs] $msg")

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = opts.get("workload").flatMap(Workloads.byName)
    val parsed = for {
      w       <- workload
      seed    <- opts.get("seed").flatMap(_.toLongOption)
      seconds <- opts.get("seconds").flatMap(_.toIntOption).filter(_ > 0)
      trace   <- opts.get("trace").filter(t => t == "0" || t == "1")
      workdir <- opts.get("workdir")
    } yield (w, seed, seconds, trace == "1", Paths.get(workdir))
    parsed match {
      case None =>
        System.err.println(
          "usage: perfbench.Main --workload " + Workloads.all.map(_.name).mkString("|") +
            " --seed N --seconds S --trace 0|1 --workdir DIR")
        System.exit(2)
      case Some((w, seed, seconds, trace, workdir)) =>
        val ok = new Run(w, seed, seconds, trace, workdir).execute()
        System.exit(if (ok) 0 else 1)
    }
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def quantile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted
    s(math.min(s.size - 1, math.ceil(q * s.size).toInt - 1).max(0))
  }

  private def gcMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  private def liveHeapBytes(): Long = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  private def session(w: Workload, workdir: Path): SparkSession =
    SparkSession.builder
      .master(s"local[$TaskThreads]")
      .appName(s"perfbench-${w.name}")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", workdir.resolve("spark").toString)
      .getOrCreate()

  private final class Run(w: Workload, seed: Long, seconds: Int, trace: Boolean, workdir: Path) {
    private var attempted = 0
    private var failed    = 0
    private var correct   = true
    private var first: Seq[Int] = null
    private val tracer = new Tracer

    private def fail(what: String): Unit = { correct = false; println(s"CHECK FAILED: $what") }

    /** One checked pass; None when it threw or its outputs differ from the
      * first pass's.
      */
    private def attempt(spark: SparkSession, input: Input): Option[PassResult] = {
      attempted += 1
      try {
        val p = Pass.run(spark, w, input, tracer)
        log(f"pass $attempted: review ${p.times.reviewNs / 1e9}%.3f s, finalize ${p.times.finalizeNs / 1e9}%.3f s, full ${p.times.totalNs / 1e9}%.3f s")
        if (first == null) first = p.digest
        Checks.sameOutputs(first, p.digest) match {
          case None => Some(p)
          case Some(why) => failed += 1; fail(s"pass $attempted: $why"); None
        }
      } catch {
        case NonFatal(e) =>
          failed += 1
          println(s"PASS FAILED: pass $attempted threw $e")
          e.printStackTrace(System.out)
          None
      }
    }

    def execute(): Boolean = {
      // Set-up: session start and input generation/caching, several rounds.
      val setupNs = ArrayBuffer.empty[Long]
      var spark: SparkSession = null
      var input: Input = null
      for (_ <- 0 until SetupRounds) {
        if (spark != null) spark.stop()
        val t0 = System.nanoTime()
        spark = session(w, workdir)
        input = Workloads.load(spark, w, seed)
        setupNs += System.nanoTime() - t0
        log(f"session and input: ${setupNs.last / 1e9}%.3f s, ${input.records.size} rows")
      }
      val tw = System.nanoTime()
      for (_ <- 0 until WarmupPasses) attempt(spark, input)
      liveHeapBytes() // every timed pass starts from a collected heap
      val setupS = (median(setupNs.toSeq.map(_.toDouble)) + (System.nanoTime() - tw)) / 1e9

      // Timed passes. In a traced run every other pass is traced, so the
      // untraced passes in between give the tracing overhead.
      val stats = new SparkStats
      val timed, traced = ArrayBuffer.empty[PassTimes]
      var gcTracedMs = 0L
      var heapPeak   = 0L
      var last: PassResult = null
      val deadline = System.nanoTime() + seconds * 1000000000L
      var i = 0
      while (i < MinTimedPasses || System.nanoTime() < deadline) {
        last = null
        val withTrace = trace && i % 2 == 0
        if (withTrace) { tracer.begin(i); spark.sparkContext.addSparkListener(stats) }
        val gc0 = gcMs()
        val p = attempt(spark, input)
        if (withTrace) {
          gcTracedMs += gcMs() - gc0
          tracer.end()
          ListenerDrain(spark.sparkContext)
          spark.sparkContext.removeSparkListener(stats)
        }
        heapPeak = math.max(heapPeak, liveHeapBytes())
        p.foreach { r => if (withTrace) traced += r.times else timed += r.times; last = r }
        i += 1
      }
      if (last == null) {
        println("no pass completed")
        spark.stop()
        return false
      }

      // Full checks on the last pass; every other pass matched its outputs.
      val pools = Kernels.groupPools(last.trans, w, sequential = trace)
      log(s"in-process pools done (${pools.size})")
      for ((name, r) <- Checks.all(w, input, last, pools)) {
        println(f"check  $name%-36s ${r.fold("ok")("FAILED: " + _)}")
        r.foreach(why => fail(s"$name: $why"))
      }
      for ((name, r) <- Checks.selfTests(w, input, last, pools)) {
        println(f"self-test $name%-33s ${if (r.isDefined) "rejects corruption" else "ACCEPTED a corrupted output"}")
        if (r.isEmpty) fail(s"self-test $name accepted a corrupted output")
      }

      log("checks done")
      val metrics =
        if (!trace) endToEnd(input, last, timed.toVector, setupS, heapPeak)
        else perLayer(input, last, traced.toVector, timed.toVector, pools, stats, gcTracedMs)
      spark.stop()

      for (m <- metrics) println(f"metric ${m.name}%-36s ${m.value}%16.6f ${m.unit}")
      val json = metrics.map(m => s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}""")
      println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${json.mkString(", ")}}}""")
      correct
    }

    private def endToEnd(input: Input, last: PassResult, passes: Vector[PassTimes],
                         setupS: Double, heapPeak: Long): Vector[Metric] = {
      val total = median(passes.map(_.totalNs.toDouble)) / 1e9
      println(s"timed passes: ${passes.size}, full pass ${passes.map(p => f"${p.totalNs / 1e9}%.3f").mkString(" ")} s")
      Vector(
        Metric("setup_s", setupS, "s"),
        Metric("review_ready_s", median(passes.map(_.reviewNs.toDouble)) / 1e9, "s"),
        Metric("finalize_s", median(passes.map(_.finalizeNs.toDouble)) / 1e9, "s"),
        Metric("records_per_s", input.records.size / total, "rows/s"),
        Metric("live_heap_mb", heapPeak / 1048576.0, "MB"),
        Metric("golden_correct", Checks.goldenCorrect(input.records, last.updated, last.goldens), "count"),
      )
    }

    private def perLayer(input: Input, last: PassResult, traced: Vector[PassTimes],
                         untraced: Vector[PassTimes], pools: Vector[Kernels.PoolRun],
                         stats: SparkStats, gcTracedMs: Long): Vector[Metric] = {
      val n     = traced.size.toDouble
      val spans = tracer.spans
      def spanS(name: String): Double = median(spans.filter(_.name == name).map(_.durNs.toDouble)) / 1e9

      println("layer self time (median over traced passes):")
      for (name <- spans.map(_.name).distinct) {
        val self = median(spans.filter(_.name == name).map(s => tracer.selfNs(s).toDouble)) / 1e9
        println(f"  $name%-22s total ${spanS(name)}%9.4f s   self $self%9.4f s")
      }
      val path = workdir.resolve(s"trace-${w.name}-seed$seed.jsonl")
      tracer.writeJsonLines(path)
      println(s"spans written to $path")

      val ruleCpu = Kernels.clusterRules(input)
      val (graphs, labels, buildNs) = Kernels.buildGraphs(last.trans, w)
      val applyNs = Kernels.applyClusters(input, last).map(_.toDouble)
      val pivotNs = pools.map(_.cpuNs.toDouble)
      val inputValue = input.records.map(r => (r.cluster, r.recordId) -> r.value).toMap
      val poolSizes  = Kernels.pools(last.trans, w.agg).map(_._2.size.toDouble)
      val layers  = Seq("RuleGen.generate", "Selection.select", "Grouping.group", "Grouping.rank",
        "Expert.confirmAll", "Applier.applyAll", "Consensus.majority")
      val covered = spans.filter(s => layers.contains(s.name)).map(_.durNs).sum.toDouble
      val passNs  = spans.filter(_.name == "pass").map(_.durNs).sum.toDouble
      val overhead = median(traced.map(_.totalNs.toDouble)) / median(untraced.map(_.totalNs.toDouble)) - 1

      Vector(
        Metric("RuleGen.generate_s", spanS("RuleGen.generate"), "s"),
        Metric("Rules.clusterRules_cpu_s", ruleCpu / 1e9, "s"),
        Metric("RuleGen.rules", last.catalog.size, "count"),
        Metric("RuleGen.occurrences", last.catalog.valuesIterator.map(r => r.occA.size + r.occB.size).sum, "count"),
        Metric("Selection.select_s", spanS("Selection.select"), "s"),
        Metric("Selection.transformations", last.trans.size, "count"),
        Metric("Grouping.group_s", spanS("Grouping.group"), "s"),
        Metric("Grouping.pools", poolSizes.size, "count"),
        Metric("Grouping.largest_pool", poolSizes.maxOption.getOrElse(0.0), "count"),
        Metric("Grouping.groups", last.groups.size, "count"),
        Metric("GraphBuilder.build_cpu_s", buildNs / 1e9, "s"),
        Metric("GraphBuilder.graphs", graphs, "count"),
        Metric("GraphBuilder.labels", labels, "count"),
        Metric("Pivot.groupByPrograms_cpu_s", pivotNs.sum / 1e9, "s"),
        Metric("Pivot.groupByPrograms_cpu_s.max", pivotNs.maxOption.getOrElse(0.0) / 1e9, "s"),
        Metric("Pivot.index_search_cpu_s", math.max(0.0, pivotNs.sum - buildNs) / 1e9, "s"),
        Metric("Grouping.rank_s", spanS("Grouping.rank"), "s"),
        Metric("Expert.confirmAll_s", spanS("Expert.confirmAll"), "s"),
        Metric("Expert.groups_shown", last.shown, "count"),
        Metric("Expert.groups_approved", last.decisions.size, "count"),
        Metric("Applier.applyAll_s", spanS("Applier.applyAll"), "s"),
        Metric("Applier.applyCluster_cpu_s", applyNs.sum / 1e9, "s"),
        Metric("Applier.applyCluster_cpu_s.p99", quantile(applyNs, 0.99) / 1e9, "s"),
        Metric("Applier.values_changed", last.updated.count(r => inputValue((r._1, r._2)) != r._3), "count"),
        Metric("Consensus.majority_s", spanS("Consensus.majority"), "s"),
        Metric("Consensus.goldens", last.goldens.count(_._2 != null), "count"),
        Metric("Consensus.ties", last.goldens.count(_._2 == null), "count"),
        Metric("spark.jobs", stats.jobs.get / n, "count"),
        Metric("spark.tasks", stats.tasks.get / n, "count"),
        Metric("spark.task_s", stats.taskMs.get / n / 1e3, "s"),
        Metric("spark.stage_s", stats.stageMs.get / n / 1e3, "s"),
        Metric("jvm.gc_s", gcTracedMs / n / 1e3, "s"),
        Metric("trace.coverage_pct", 100 * covered / passNs, "%"),
        Metric("trace.overhead_pct", 100 * overhead, "%"),
      )
    }
  }
}
