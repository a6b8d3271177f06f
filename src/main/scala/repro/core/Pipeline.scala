package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.lang.PivotConfig

/** End-to-end configuration of GoldenRecordCreation (Algorithm 1). */
final case class PipelineConfig(
    agg: AggMethod = BothAgg,
    dir: DirMethod = BestDir,
    budget: Int = 100,
    pivot: PivotConfig = PivotConfig(),
)

/** Rule catalog + ranked groups, reusable across expert budgets (the paper's
  * figures vary #confirmed groups over one aggregation run).
  */
final case class Prepared(
    clusters: DataFrame,
    catalog: Map[RuleKey, MatchingRule],
    trans: Vector[Trans],
    ranked: Vector[RuleGroup],
)

final case class PipelineResult(
    updated: DataFrame,
    prepared: Prepared,
    decisions: Vector[Decision],
)

/** GoldenRecordCreation (Algorithm 1) for a single column, minus the final
  * truth-discovery call (run `Consensus.majority` on `updated`).
  */
object Pipeline {

  /** Steps 1–4: generate rules, select transformations, aggregate into
    * groups, rank by aggregate frequency.
    */
  def prepare(spark: SparkSession, clusters: DataFrame, cfg: PipelineConfig): Prepared = {
    val catalog = RuleGen.generate(spark, clusters)
    val trans   = Selection.select(catalog.keys.toSeq, cfg.dir)
    val groups  = Grouping.group(spark, trans, cfg.agg, cfg.pivot)
    Prepared(clusters, catalog, trans, Grouping.rank(groups, catalog))
  }

  /** Step 5: confirm the top-`budget` groups with the simulated expert and
    * apply the approved ones across all clusters. `updated` is cached.
    */
  def applyBudget(spark: SparkSession, prepared: Prepared, judge: RuleJudge,
                  budget: Int, cfg: PipelineConfig): PipelineResult = {
    val (decisions, _) = Expert.confirmAll(prepared.ranked, prepared.catalog, judge, budget, cfg.agg)
    // Only adopting decisions read the initial keys (`Applier.applyCluster`).
    val initialKeys =
      if (decisions.exists(_.adopts)) prepared.catalog.keysIterator.map(Applier.keyString).toSet
      else Set.empty[String]
    val updated = Applier.applyAll(spark, prepared.clusters, decisions, initialKeys).cache()
    PipelineResult(updated, prepared, decisions)
  }

  def run(spark: SparkSession, clusters: DataFrame, judge: RuleJudge,
          cfg: PipelineConfig = PipelineConfig()): PipelineResult = {
    val prepared = prepare(spark, clusters, cfg)
    applyBudget(spark, prepared, judge, cfg.budget, cfg)
  }
}
