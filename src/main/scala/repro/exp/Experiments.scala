package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._
import repro.core.lang.{GraphConfig, PivotConfig}
import repro.data.{ConsolidationGen, DictJudge, Judges}

/** The reproduction experiments behind every evaluation table (Section 7).
  * Run by the bench suites (`bench/`); each function returns the formatted
  * table it reproduces.
  */
object Experiments {

  /** One synthetic stand-in dataset (DESIGN.md §3). `maxPathLen` follows the
    * paper's defaults: θ = 5 for AuthorList, 4 for the other two.
    */
  final case class DatasetSpec(
      name: String,
      sf: Double,
      gen: (SparkSession, Double) => DataFrame,
      judge: DictJudge,
      maxPathLen: Int,
      clusterSample: Int,
  ) {
    def pivotConfig: PivotConfig = PivotConfig(maxPathLen = maxPathLen)
    def pipelineConfig(agg: AggMethod = BothAgg, dir: DirMethod = BestDir): PipelineConfig =
      PipelineConfig(agg = agg, dir = dir, pivot = pivotConfig)
  }

  /** Bench-scale datasets. The paper ran C++ on a 64-core Xeon over the full
    * datasets; we scale the synthetic stand-ins so the whole bench suite
    * finishes in minutes on one 16-core container (DESIGN.md §6).
    */
  def benchDatasets(authorSf: Double = 0.05, addressSf: Double = 0.06,
                    journalSf: Double = 0.08): Seq[DatasetSpec] = Seq(
    DatasetSpec("AuthorList", authorSf, ConsolidationGen.authorList(_, _), Judges.authorList, 5, 100),
    DatasetSpec("Address", addressSf, ConsolidationGen.address(_, _), Judges.address, 4, 100),
    DatasetSpec("JournalTitle", journalSf, ConsolidationGen.journalTitle(_, _), Judges.journalTitle, 4, 200),
  )

  private def timeMs[T](body: => T): (T, Long) = {
    val t0 = System.nanoTime()
    val r  = body
    (r, (System.nanoTime() - t0) / 1000000)
  }

  /** The aggregation methods in the order the tables print them. */
  private val Methods = Seq[(String, AggMethod)](
    "NoAgg" -> NoAgg, "StructAgg" -> StructAgg, "TransAgg" -> TransAgg, "BothAgg" -> BothAgg)

  /** The direction-selection methods in the order the tables print them. */
  private val Dirs = Seq[(String, DirMethod)](
    "RandDir" -> RandDir, "LongDir" -> LongDir, "RevDir" -> RevDir, "BestDir" -> BestDir)

  /** Warm the JIT on a miniature pipeline so the first timed measurement is
    * not dominated by compilation (the C2 warm/cold gap is up to ~10x).
    */
  def warmup(spark: SparkSession): Unit = {
    val df = ConsolidationGen.address(spark, 0.005).select("cluster", "recordId", "value")
    val catalog = RuleGen.generate(spark, df)
    val trans = Selection.select(catalog.keys.toSeq, BestDir)
    Grouping.group(spark, trans, BothAgg, PivotConfig())
    Grouping.group(spark, trans, TransAgg, PivotConfig())
    ()
  }

  /** Run `body` on the dataset's (cluster, recordId, value) columns, cached
    * and materialized first.
    */
  private def withValues[T](spark: SparkSession, spec: DatasetSpec)(body: DataFrame => T): T = {
    val vals = spec.gen(spark, spec.sf).select("cluster", "recordId", "value").cache(); vals.count()
    try body(vals) finally vals.unpersist()
  }

  /** A time table: one row per name in `rows`, one column of seconds per
    * dataset; `times` runs one dataset's measurements, keyed by row name.
    */
  private def timeTable(title: String, specs: Seq[DatasetSpec], rows: Seq[String])
                       (times: DatasetSpec => Map[String, Double]): String = {
    val bySpec = specs.map(s => s.name -> times(s)).toMap
    val sb = new StringBuilder
    sb ++= title + "\n"
    sb ++= f"${"Method"}%-10s" + specs.map(s => f"${s.name}%14s").mkString + "\n"
    for (row <- rows)
      sb ++= f"$row%-10s" + specs.map(s => f"${bySpec(s.name).getOrElse(row, Double.NaN)}%14.3f").mkString + "\n"
    sb.toString
  }

  // --------------------------------------------------------------------
  // Table 6: dataset details
  // --------------------------------------------------------------------

  def table6(spark: SparkSession, specs: Seq[DatasetSpec]): String = {
    val sb = new StringBuilder
    sb ++= "Table 6: dataset details (synthetic stand-ins at bench SF)\n"
    sb ++= f"${"Dataset"}%-14s ${"sf"}%6s ${"#Rows"}%8s ${"#Clusters"}%10s ${"Avg"}%7s ${"Min"}%5s ${"Max"}%6s ${"#DupPairs"}%10s\n"
    for (spec <- specs) {
      val st = ConsolidationGen.stats(spark, spec.gen(spark, spec.sf))
      sb ++= f"${spec.name}%-14s ${spec.sf}%6.3f ${st.rows}%8d ${st.clusters}%10d ${st.avgSize}%7.2f ${st.minSize}%5d ${st.maxSize}%6d ${st.distinctDupPairs}%10d\n"
    }
    sb.toString
  }

  // --------------------------------------------------------------------
  // Table 4: aggregation time (s) for NoAgg/StructAgg/TransAgg/BothAgg
  //          plus NoAffix/Affix
  // --------------------------------------------------------------------

  def table4(spark: SparkSession, specs: Seq[DatasetSpec]): String =
    timeTable("Table 4: aggregation time (seconds)", specs, Methods.map(_._1) ++ Seq("NoAffix", "Affix")) { spec =>
      withValues(spark, spec) { vals =>
        val catalog = RuleGen.generate(spark, vals)
        val trans   = Selection.select(catalog.keys.toSeq, BestDir)
        val byMethod = Methods.map { case (mname, m) =>
          mname -> timeMs(Grouping.group(spark, trans, m, spec.pivotConfig))._2 / 1000.0
        }.toMap
        val noAffixCfg = spec.pivotConfig.copy(graph = GraphConfig(affix = false))
        val noAffix    = timeMs(Grouping.group(spark, trans, BothAgg, noAffixCfg))._2 / 1000.0
        byMethod + ("NoAffix" -> noAffix) + ("Affix" -> byMethod("BothAgg"))
      }
    }

  // --------------------------------------------------------------------
  // Table 7: aggregation time (s) under each direction-selection method
  // --------------------------------------------------------------------

  def table7(spark: SparkSession, specs: Seq[DatasetSpec]): String =
    timeTable("Table 7: aggregation time (seconds) by transformation selection", specs, Dirs.map(_._1)) { spec =>
      withValues(spark, spec) { vals =>
        val catalog = RuleGen.generate(spark, vals)
        Dirs.map { case (dname, d) =>
          dname -> timeMs {
            val trans = Selection.select(catalog.keys.toSeq, d)
            Grouping.group(spark, trans, BothAgg, spec.pivotConfig)
          }._2 / 1000.0
        }.toMap
      }
    }

  // --------------------------------------------------------------------
  // Table 5: precision improvement for majority consensus
  // --------------------------------------------------------------------

  def table5(spark: SparkSession, specs: Seq[DatasetSpec]): String = {
    val sb = new StringBuilder
    sb ++= s"Table 5: MC golden-record precision before/after (budget=${PipelineConfig().budget} groups)\n"
    sb ++= f"${""}%-8s" + specs.map(s => f"${s.name}%14s").mkString + "\n"
    val before = scala.collection.mutable.LinkedHashMap.empty[String, Double]
    val after  = scala.collection.mutable.LinkedHashMap.empty[String, Double]
    for (spec <- specs) {
      val records = spec.gen(spark, spec.sf).cache(); records.count()
      val sample  = ConsolidationGen.sampleClusters(spark, records, spec.clusterSample)
      before(spec.name) = Metrics.mcPrecision(spark, records, sample)
      val res = Pipeline.run(spark, records.select("cluster", "recordId", "value"),
        spec.judge, spec.pipelineConfig())
      val updated = res.updated.join(records.select(col("recordId"), col("entityId")), Seq("recordId"))
      after(spec.name) = Metrics.mcPrecision(spark, updated, sample)
      res.updated.unpersist(); records.unpersist()
    }
    sb ++= f"${"before"}%-8s" + specs.map(s => f"${before(s.name)}%14.3f").mkString + "\n"
    sb ++= f"${"after"}%-8s" + specs.map(s => f"${after(s.name)}%14.3f").mkString + "\n"
    sb.toString
  }

  // --------------------------------------------------------------------
  // Figures 3-5 companion: P/R/MCC of merging vs #confirmed groups
  // --------------------------------------------------------------------

  def curvesAggregation(spark: SparkSession, specs: Seq[DatasetSpec]): String = {
    val sb = new StringBuilder
    sb ++= "Figures 3-5 companion: precision/recall/MCC of merging duplicates\n"
    sb ++= f"${"Dataset"}%-14s ${"Method"}%-10s ${"#Groups"}%8s ${"Prec"}%7s ${"Recall"}%7s ${"MCC"}%7s\n"
    for (spec <- specs) {
      val records = spec.gen(spark, spec.sf).cache(); records.count()
      val vals    = records.select("cluster", "recordId", "value")
      val pairs   = ConsolidationGen.samplePairs(spark, records, 800).cache(); pairs.count()
      for ((mname, m) <- Methods) {
        val cfg      = spec.pipelineConfig(agg = m)
        val prepared = Pipeline.prepare(spark, vals, cfg)
        for (b <- Seq(10, 25, 50, 100)) {
          val res = Pipeline.applyBudget(spark, prepared, spec.judge, cfg.copy(budget = b))
          val c   = Metrics.pairConfusion(spark, res.updated, pairs)
          sb ++= f"${spec.name}%-14s $mname%-10s $b%8d ${c.precision}%7.3f ${c.recall}%7.3f ${c.mcc}%7.3f\n"
          res.updated.unpersist()
        }
      }
      pairs.unpersist(); records.unpersist()
    }
    sb.toString
  }

  // --------------------------------------------------------------------
  // Figures 6 + 8 companion: recall by selection method and affix on/off
  // --------------------------------------------------------------------

  def curvesSelectionAffix(spark: SparkSession, specs: Seq[DatasetSpec]): String = {
    val sb = new StringBuilder
    sb ++= s"Figures 6 and 8 companion: recall of merging at budget=${PipelineConfig().budget}\n"
    sb ++= f"${"Dataset"}%-14s ${"Variant"}%-10s ${"Prec"}%7s ${"Recall"}%7s\n"
    for (spec <- specs) {
      val records = spec.gen(spark, spec.sf).cache(); records.count()
      val vals    = records.select("cluster", "recordId", "value")
      val pairs   = ConsolidationGen.samplePairs(spark, records, 800).cache(); pairs.count()
      def run(tag: String, cfg: PipelineConfig): Unit = {
        val res = Pipeline.run(spark, vals, spec.judge, cfg)
        val c   = Metrics.pairConfusion(spark, res.updated, pairs)
        sb ++= f"${spec.name}%-14s $tag%-10s ${c.precision}%7.3f ${c.recall}%7.3f\n"
        res.updated.unpersist()
      }
      for ((dname, d) <- Dirs) run(dname, spec.pipelineConfig(dir = d))
      run("NoAffix", spec.pipelineConfig()
        .copy(pivot = spec.pivotConfig.copy(graph = GraphConfig(affix = false))))
      run("Affix", spec.pipelineConfig())
      pairs.unpersist(); records.unpersist()
    }
    sb.toString
  }

  // --------------------------------------------------------------------
  // Figure 7 companion: pruning-technique aggregation times
  // --------------------------------------------------------------------

  def pruning(spark: SparkSession, specs: Seq[DatasetSpec]): String = {
    val searchBudget = 200000L
    val variants = Seq(
      ("NoThrsh", false, false), ("LocalThrsh", true, false),
      ("GlobalThrsh", false, true), ("AllThrsh", true, true))
    val sb = new StringBuilder
    sb ++= s"Figure 7 companion: aggregation time (s) by pruning variant (budget=$searchBudget)\n"
    sb ++= f"${"Dataset"}%-14s ${"theta"}%5s" + variants.map(v => f"${v._1}%13s").mkString + "\n"
    for (spec <- specs) withValues(spark, spec) { vals =>
      val catalog = RuleGen.generate(spark, vals)
      val trans   = Selection.select(catalog.keys.toSeq, BestDir)
      for (theta <- Seq(3, 4)) {
        val times = variants.map { case (_, local, global) =>
          val cfg = PivotConfig(maxPathLen = theta, localThreshold = local,
            globalThreshold = global, searchBudget = searchBudget)
          timeMs(Grouping.group(spark, trans, BothAgg, cfg))._2 / 1000.0
        }
        sb ++= f"${spec.name}%-14s $theta%5d" + times.map(t => f"$t%13.3f").mkString + "\n"
      }
    }
    sb.toString
  }
}
