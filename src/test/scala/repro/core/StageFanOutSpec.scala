package repro.core

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import repro.SparkSpec

/** Guards the number of Spark jobs and tasks the pipeline's distributed steps
  * run: each step is a few tasks sized to `defaultParallelism`, not one task
  * per shuffle partition (the suite runs with 64 shuffle partitions).
  */
class StageFanOutSpec extends SparkSpec {

  /** Local property that marks the flushing job. */
  private val Marker = "repro.test.fanOutMarker"

  /** (jobs, tasks, SQL queries) Spark ran inside `body`. A marker job run
    * afterwards flushes the listener bus: its start event is delivered after
    * every event of `body`.
    */
  private def fanOut(body: => Unit): (Int, Int, Int) = {
    val jobs, tasks, queries = new AtomicInteger
    val flushed = new CountDownLatch(1)
    @volatile var counted = (0, 0, 0)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (e.properties != null && e.properties.getProperty(Marker) != null) {
          counted = (jobs.get, tasks.get, queries.get)
          flushed.countDown()
        } else jobs.incrementAndGet()
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit = tasks.incrementAndGet()
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
    val (jobs, tasks, _) = fanOut(Grouping.group(spark, trans, BothAgg, GroupingGoldenSpec.pivotConfig("JournalTitle")))
    info(s"$jobs jobs, $tasks tasks, defaultParallelism $parallelism")
    assert(jobs == 1, s"$jobs jobs")
    assert(tasks <= parallelism, s"$tasks tasks, defaultParallelism $parallelism")
  }

  test("rule generation is one query: one shuffle and one collect") {
    import spark.implicits._
    val clusters = (for (c <- 0L until 200L; r <- 0L until 3L) yield (c, c * 3 + r, s"$c st ${"n" * r.toInt}"))
      .toDF("cluster", "recordId", "value")
    val (jobs, tasks, queries) = fanOut(RuleGen.generate(spark, clusters))
    info(s"$queries queries, $jobs jobs, $tasks tasks, defaultParallelism $parallelism")
    assert(queries == 1, s"$queries queries")
    // Adaptive execution runs the shuffle's map stage as a job of its own.
    assert(jobs <= 2, s"$jobs jobs")
  }

  test("apply plus majority consensus stay within a small multiple of defaultParallelism tasks") {
    import spark.implicits._
    val clusters = (for (c <- 0L until 500L; r <- 0L until 3L) yield (c, c * 3 + r, s"v${(c + r) % 2}"))
      .toDF("cluster", "recordId", "value")
    val (jobs, tasks, _) = fanOut {
      val updated = Applier.applyAll(spark, clusters, Vector.empty, Set.empty).cache()
      updated.count()
      Consensus.majority(spark, updated).collect()
      updated.unpersist(blocking = true)
    }
    info(s"$jobs jobs, $tasks tasks, defaultParallelism $parallelism")
    // Measured: four stages of defaultParallelism tasks (input map, apply,
    // count map, consensus map) plus two single-task final stages. One task
    // per shuffle partition would be well over 128.
    assert(tasks <= 5 * parallelism + 2, s"$tasks tasks, defaultParallelism $parallelism")
  }
}
