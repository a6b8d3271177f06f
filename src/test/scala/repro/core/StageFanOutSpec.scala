package repro.core

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart, SparkListenerStageCompleted, SparkListenerTaskEnd}
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import repro.SparkSpec
import scala.collection.mutable.ArrayBuffer

/** Guards the number of Spark jobs and tasks the pipeline's distributed steps
  * run: each step is a few tasks sized to `defaultParallelism`, not one task
  * per shuffle partition (the suite runs with 64 shuffle partitions).
  */
class StageFanOutSpec extends SparkSpec {

  /** Local property that marks the flushing job. */
  private val Marker = "repro.test.fanOutMarker"

  /** What Spark ran inside `body`: jobs, tasks, SQL queries, and the task
    * count of every completed stage that read shuffled records.
    */
  private final case class FanOut(jobs: Int, tasks: Int, queries: Int, shuffleReadStageTasks: Vector[Int])

  /** A marker job run after `body` flushes the listener bus: its start event
    * is delivered after every event of `body`.
    */
  private def fanOut(body: => Unit): FanOut = {
    val jobs, tasks, queries = new AtomicInteger
    val readStages = ArrayBuffer.empty[Int] // touched only on the listener bus thread
    val flushed = new CountDownLatch(1)
    @volatile var counted = FanOut(0, 0, 0, Vector.empty)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (e.properties != null && e.properties.getProperty(Marker) != null) {
          counted = FanOut(jobs.get, tasks.get, queries.get, readStages.toVector)
          flushed.countDown()
        } else jobs.incrementAndGet()
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit = tasks.incrementAndGet()
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
        val info = e.stageInfo
        if (info.taskMetrics != null && info.taskMetrics.shuffleReadMetrics.recordsRead > 0)
          readStages += info.numTasks
      }
      override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
        case _: SparkListenerSQLExecutionStart => queries.incrementAndGet()
        case _                                 =>
      }
    }
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    try {
      body
      sc.setLocalProperty(Marker, "1")
      try sc.parallelize(Seq(1), 1).count() finally sc.setLocalProperty(Marker, null)
      assert(flushed.await(30, TimeUnit.SECONDS), "listener bus did not flush")
      counted
    } finally sc.removeSparkListener(listener)
  }

  private def parallelism = spark.sparkContext.defaultParallelism

  test("BothAgg grouping runs one job of at most defaultParallelism tasks") {
    val trans = GroupingGoldenSpec.readTsv("golden/grouping_pools.tsv")
      .filter(_(0) == "JournalTitle").map(r => Trans(r(1), r(2)))
    assert(trans.map(_.structKey).distinct.size > parallelism)
    val FanOut(jobs, tasks, _, _) = fanOut(Grouping.group(spark, trans, BothAgg, GroupingGoldenSpec.pivotConfig("JournalTitle")))
    info(s"$jobs jobs, $tasks tasks, defaultParallelism $parallelism")
    assert(jobs == 1, s"$jobs jobs")
    assert(tasks <= parallelism, s"$tasks tasks, defaultParallelism $parallelism")
  }

  test("rule generation is one query: one shuffle and one collect") {
    import spark.implicits._
    val clusters = (for (c <- 0L until 200L; r <- 0L until 3L) yield (c, c * 3 + r, s"$c st ${"n" * r.toInt}"))
      .toDF("cluster", "recordId", "value")
    val FanOut(jobs, tasks, queries, _) = fanOut(RuleGen.generate(spark, clusters))
    info(s"$queries queries, $jobs jobs, $tasks tasks, defaultParallelism $parallelism")
    assert(queries == 1, s"$queries queries")
    // Adaptive execution runs the shuffle's map stage as a job of its own.
    assert(jobs <= 2, s"$jobs jobs")
  }

  test("apply plus majority consensus stay within a small multiple of defaultParallelism tasks") {
    import spark.implicits._
    val clusters = (for (c <- 0L until 500L; r <- 0L until 3L) yield (c, c * 3 + r, s"v${(c + r) % 2}"))
      .toDF("cluster", "recordId", "value")
    val FanOut(jobs, tasks, _, _) = fanOut {
      val updated = Applier.applyAll(spark, clusters, Vector.empty, Set.empty).cache()
      updated.count()
      Consensus.majority(spark, updated).collect()
      updated.unpersist(blocking = true)
    }
    info(s"$jobs jobs, $tasks tasks, defaultParallelism $parallelism")
    // Measured: five stages of defaultParallelism tasks plus the count's
    // single-task final stage. One task per shuffle partition would be well
    // over 128.
    assert(tasks <= 5 * parallelism + 2, s"$tasks tasks, defaultParallelism $parallelism")
  }

  test("the per-cluster stage of rule generation, application and consensus runs one task per core") {
    import spark.implicits._
    val n = math.max(200, 2 * parallelism)
    val clusters = (for (c <- 0L until n.toLong; r <- 0L until 3L) yield (c, c * 3 + r, s"$c st ${"n" * r.toInt}"))
      .toDF("cluster", "recordId", "value")
    val stages = Seq(
      "RuleGen.generate"   -> fanOut(RuleGen.generate(spark, clusters)),
      "Applier.applyAll"   -> fanOut(Applier.applyAll(spark, clusters, Vector.empty, Set.empty).collect()),
      "Consensus.majority" -> fanOut(Consensus.majority(spark, clusters).collect()),
    ).map { case (step, f) => step -> f.shuffleReadStageTasks }
    info(s"post-shuffle stage tasks ${stages.mkString(", ")}, defaultParallelism $parallelism")
    val wrong = stages.filter(_._2 != Vector(parallelism))
    assert(wrong.isEmpty, s"expected one post-shuffle stage of $parallelism tasks each: $wrong")
  }
}
