package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.lang.PivotConfig

/** End-to-end configuration of GoldenRecordCreation (Algorithm 1). */
final case class PipelineConfig(
    agg: AggMethod = BothAgg,
    dir: DirMethod = BestDir,
    budget: Int = 100,
    pivot: PivotConfig = PivotConfig(),
    expert: ExpertConfig = ExpertConfig(),
    seed: Long = 42,
)

/** Rule catalog + ranked groups, reusable across expert budgets (the paper's
  * figures vary #confirmed groups over one aggregation run).
  */
final case class Prepared(
    clusters: DataFrame,
    catalog: Map[RuleKey, MatchingRule],
    trans: Vector[Trans],
    ranked: Vector[RuleGroup],
    ruleGenMillis: Long,
    aggregationMillis: Long,
)

final case class PipelineResult(
    updated: DataFrame,
    prepared: Prepared,
    decisions: Vector[Decision],
    confirmed: Int,
    applyMillis: Long,
)

/** GoldenRecordCreation (Algorithm 1) for a single column, minus the final
  * truth-discovery call (run `Consensus.majority` on `updated`).
  */
object Pipeline {

  /** Steps 1–4: generate rules, select transformations, aggregate into
    * groups, rank by aggregate frequency. `aggregationMillis` measures
    * selection + grouping, matching the paper's "aggregation time" (rule
    * generation is excluded there as negligible and reported separately).
    */
  def prepare(spark: SparkSession, clusters: DataFrame, cfg: PipelineConfig): Prepared = {
    val t0      = System.nanoTime()
    val catalog = RuleGen.generate(spark, clusters)
    val t1      = System.nanoTime()
    val trans   = Selection.select(catalog.keys.toSeq, cfg.dir, cfg.seed)
    val groups  = Grouping.group(spark, trans, cfg.agg, cfg.pivot)
    val ranked  = Grouping.rank(groups, catalog)
    val t2      = System.nanoTime()
    Prepared(clusters, catalog, trans, ranked,
      ruleGenMillis = (t1 - t0) / 1000000,
      aggregationMillis = (t2 - t1) / 1000000)
  }

  /** Step 5: confirm the top-`budget` groups with the simulated expert and
    * apply the approved ones across all clusters.
    */
  def applyBudget(spark: SparkSession, prepared: Prepared, judge: RuleJudge,
                  budget: Int, cfg: PipelineConfig): PipelineResult = {
    val (decisions, confirmed) =
      Expert.confirmAll(prepared.ranked, prepared.catalog, judge, budget, cfg.agg, cfg.expert)
    val initialKeys = prepared.catalog.keysIterator.map(Applier.keyString).toSet
    val t0 = System.nanoTime()
    val updated = Applier
      .applyAll(spark, prepared.clusters, decisions, initialKeys)
      .cache()
    updated.count() // force
    val t1 = System.nanoTime()
    PipelineResult(updated, prepared, decisions, confirmed, (t1 - t0) / 1000000)
  }

  def run(spark: SparkSession, clusters: DataFrame, judge: RuleJudge,
          cfg: PipelineConfig = PipelineConfig()): PipelineResult = {
    val prepared = prepare(spark, clusters, cfg)
    applyBudget(spark, prepared, judge, cfg.budget, cfg)
  }
}
