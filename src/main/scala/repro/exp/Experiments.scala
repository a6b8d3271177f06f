package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.core.lang.{GraphConfig, PivotConfig}
import repro.data.{ConsolidationGen, DictJudge, Judges}
import repro.exp.Table.{Column, Row}

/** The reproduction experiments behind every evaluation table (Section 7).
  * Run by the bench suites (`bench/`); each function returns the [[Table]]
  * it reproduces.
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

  /** Wall seconds of `body`, in whole milliseconds. */
  private def seconds(body: => Any): Double = {
    val t0 = System.nanoTime()
    body
    (System.nanoTime() - t0) / 1000000 / 1000.0
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
  }

  /** Run `body` on `df` cached and materialized first, and release the cache
    * however `body` ends.
    */
  private def cached[T](df: DataFrame)(body: DataFrame => T): T = {
    df.cache()
    try { df.count(); body(df) } finally df.unpersist()
  }

  /** Run `body` on the dataset's cached records and their (cluster, recordId, value) columns. */
  private def withRecords[T](spark: SparkSession, spec: DatasetSpec)(body: (DataFrame, DataFrame) => T): T =
    cached(spec.gen(spark, spec.sf))(records => body(records, records.select("cluster", "recordId", "value")))

  /** A table with one column of 3 decimals per dataset and one row per name
    * in `rows`; `cells` measures one dataset, keyed by row name.
    */
  private def perDataset(title: String, labelName: String, specs: Seq[DatasetSpec], rows: Seq[String])
                        (cells: DatasetSpec => Map[String, Double]): Table = {
    val bySpec = specs.map(cells)
    Table(title, Seq(labelName), specs.map(s => Column(s.name, 3)), rows.map(r => Row(Seq(r), bySpec.map(_(r)))))
  }

  /** Pair confusion over the dataset's sampled record pairs after confirming
    * the top `b` groups of one preparation of each of `cfgs`, for each `b` in `budgets`.
    */
  private def confusions(spark: SparkSession, spec: DatasetSpec, cfgs: Seq[PipelineConfig],
                         budgets: Seq[Int]): Seq[Seq[PairConfusion]] =
    withRecords(spark, spec) { (records, vals) =>
      cached(ConsolidationGen.samplePairs(spark, records, 800)) { pairs =>
        cfgs.map { cfg =>
          val prepared = Pipeline.prepare(spark, vals, cfg)
          budgets.map { b =>
            val res = Pipeline.applyBudget(spark, prepared, spec.judge, cfg.copy(budget = b))
            try Metrics.pairConfusion(spark, res.updated, pairs) finally res.updated.unpersist()
          }
        }
      }
    }

  /** Table 6: dataset details. */
  def table6(spark: SparkSession, specs: Seq[DatasetSpec]): Table =
    Table("Table 6: dataset details (synthetic stand-ins at bench SF)", Seq("Dataset"),
      Seq(Column("sf", 3), Column("#Rows", 0), Column("#Clusters", 0), Column("Avg", 2),
        Column("Min", 0), Column("Max", 0), Column("#DupPairs", 0)),
      specs.map { spec =>
        val st = withRecords(spark, spec)((records, _) => ConsolidationGen.stats(spark, records))
        Row(Seq(spec.name), Seq(spec.sf, st.rows.toDouble, st.clusters.toDouble, st.avgSize,
          st.minSize.toDouble, st.maxSize.toDouble, st.distinctDupPairs.toDouble))
      })

  /** Table 4: aggregation time (s) for NoAgg/StructAgg/TransAgg/BothAgg plus NoAffix/Affix. */
  def table4(spark: SparkSession, specs: Seq[DatasetSpec]): Table =
    perDataset("Table 4: aggregation time (seconds)", "Method", specs,
      Methods.map(_._1) ++ Seq("NoAffix", "Affix")) { spec =>
      withRecords(spark, spec) { (_, vals) =>
        val catalog = RuleGen.generate(spark, vals)
        val trans   = Selection.select(catalog.keys.toSeq, BestDir)
        val byMethod = Methods.map { case (n, m) => n -> seconds(Grouping.group(spark, trans, m, spec.pivotConfig)) }.toMap
        val noAffixCfg = spec.pivotConfig.copy(graph = GraphConfig(affix = false))
        byMethod + ("NoAffix" -> seconds(Grouping.group(spark, trans, BothAgg, noAffixCfg))) + ("Affix" -> byMethod("BothAgg"))
      }
    }

  /** Table 7: aggregation time (s) under each direction-selection method. */
  def table7(spark: SparkSession, specs: Seq[DatasetSpec]): Table =
    perDataset("Table 7: aggregation time (seconds) by transformation selection", "Method", specs,
      Dirs.map(_._1)) { spec =>
      withRecords(spark, spec) { (_, vals) =>
        val catalog = RuleGen.generate(spark, vals)
        Dirs.map { case (dname, d) =>
          dname -> seconds(Grouping.group(spark, Selection.select(catalog.keys.toSeq, d), BothAgg, spec.pivotConfig))
        }.toMap
      }
    }

  /** Table 5: precision improvement for majority consensus. */
  def table5(spark: SparkSession, specs: Seq[DatasetSpec]): Table =
    perDataset(s"Table 5: MC golden-record precision before/after (budget=${PipelineConfig().budget} groups)",
      "", specs, Seq("before", "after")) { spec =>
      withRecords(spark, spec) { (records, vals) =>
        val sample = ConsolidationGen.sampleClusters(spark, records, spec.clusterSample)
        val before = Metrics.mcPrecision(spark, records, sample)
        val res    = Pipeline.run(spark, vals, spec.judge, spec.pipelineConfig())
        try Map("before" -> before, "after" -> Metrics.mcPrecision(spark,
          res.updated.join(records.select("recordId", "entityId"), Seq("recordId")), sample))
        finally res.updated.unpersist()
      }
    }

  /** Figures 3-5 companion: P/R/MCC of merging vs #confirmed groups. */
  def curvesAggregation(spark: SparkSession, specs: Seq[DatasetSpec]): Table = {
    val budgets = Seq(10, 25, 50, 100)
    Table("Figures 3-5 companion: precision/recall/MCC of merging duplicates",
      Seq("Dataset", "Method", "#Groups"), Seq(Column("Prec", 3), Column("Recall", 3), Column("MCC", 3)),
      specs.flatMap { spec =>
        val byMethod = confusions(spark, spec, Methods.map(m => spec.pipelineConfig(agg = m._2)), budgets)
        for (((mname, _), cs) <- Methods.zip(byMethod); (b, c) <- budgets.zip(cs))
          yield Row(Seq(spec.name, mname, b.toString), Seq(c.precision, c.recall, c.mcc))
      })
  }

  /** Figures 6 + 8 companion: recall by selection method and affix on/off.
    * The `Affix` row's configuration is the `BestDir` row's default one, so
    * it is run once and printed under both names.
    */
  def curvesSelectionAffix(spark: SparkSession, specs: Seq[DatasetSpec]): Table = {
    val budget = PipelineConfig().budget
    Table(s"Figures 6 and 8 companion: recall of merging at budget=$budget",
      Seq("Dataset", "Variant"), Seq(Column("Prec", 3), Column("Recall", 3)),
      specs.flatMap { spec =>
        val variants = Dirs.map { case (dname, d) => dname -> spec.pipelineConfig(dir = d) } :+
          ("NoAffix" -> spec.pipelineConfig().copy(pivot = spec.pivotConfig.copy(graph = GraphConfig(affix = false))))
        val scored = variants.map(_._1).zip(confusions(spark, spec, variants.map(_._2), Seq(budget)).map(_.head))
        for ((v, c) <- scored :+ ("Affix" -> scored.toMap.apply("BestDir")))
          yield Row(Seq(spec.name, v), Seq(c.precision, c.recall))
      })
  }

  /** Figure 7 companion: pruning-technique aggregation times. */
  def pruning(spark: SparkSession, specs: Seq[DatasetSpec]): Table = {
    val searchBudget = 200000L
    val variants = Seq(
      ("NoThrsh", false, false), ("LocalThrsh", true, false),
      ("GlobalThrsh", false, true), ("AllThrsh", true, true))
    Table(s"Figure 7 companion: aggregation time (s) by pruning variant (budget=$searchBudget)",
      Seq("Dataset", "theta"), variants.map(v => Column(v._1, 3)),
      specs.flatMap { spec =>
        withRecords(spark, spec) { (_, vals) =>
          val catalog = RuleGen.generate(spark, vals)
          val trans   = Selection.select(catalog.keys.toSeq, BestDir)
          for (theta <- Seq(3, 4)) yield Row(Seq(spec.name, theta.toString), variants.map { case (_, local, global) =>
            val cfg = PivotConfig(maxPathLen = theta, localThreshold = local,
              globalThreshold = global, searchBudget = searchBudget)
            seconds(Grouping.group(spark, trans, BothAgg, cfg))
          })
        }
      })
  }
}
