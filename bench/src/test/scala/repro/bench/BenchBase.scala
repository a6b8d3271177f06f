package repro.bench

import repro.SparkSpec
import repro.exp.{Experiments, Table}

/** Base for the table benches: shared Spark session, shared bench-scale
  * dataset specs, and a one-time JIT warmup so the first timed grouping is
  * not dominated by C2 compilation.
  */
trait BenchBase extends SparkSpec {

  lazy val specs: Seq[Experiments.DatasetSpec] = Experiments.benchDatasets()

  def warmedUp(): Unit = BenchBase.ensureWarm(spark)

  /** Print a finished table so `sbt "bench/test" | tee bench_output.txt`
    * captures it verbatim.
    */
  def report(table: Table): Unit = println(Seq("", "=" * 78, table.render, "=" * 78).mkString("\n"))
}

object BenchBase {
  private var warm = false
  def ensureWarm(spark: org.apache.spark.sql.SparkSession): Unit = synchronized {
    if (!warm) { Experiments.warmup(spark); warm = true }
  }
}
