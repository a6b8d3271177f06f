package perfbench

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler._

/** Counts the jobs, tasks, summed executor run time and summed stage wall
  * time of the Spark work done while it is registered.
  */
final class SparkStats extends SparkListener {
  val jobs    = new AtomicLong
  val tasks   = new AtomicLong
  val taskMs  = new AtomicLong
  val stageMs = new AtomicLong

  override def onJobEnd(e: SparkListenerJobEnd): Unit = jobs.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    if (e.taskMetrics != null) taskMs.addAndGet(e.taskMetrics.executorRunTime)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    for (s <- e.stageInfo.submissionTime; c <- e.stageInfo.completionTime) stageMs.addAndGet(c - s)
}
