package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.{Oracle, SparkSpec}
import repro.data.{ConsolidationGen, Judges}

/** The three per-cluster steps behind `Clusters.perCluster` against their
  * in-process or SQL references, on the input shapes the shuffle must handle:
  * each cluster's rows scattered over many input partitions, fewer clusters
  * than `defaultParallelism` (empty partitions), and NULL values.
  */
class ClustersSpec extends SparkSpec {

  private type Row3 = (Long, Long, String)

  private def parallelism = spark.sparkContext.defaultParallelism

  /** AuthorList rows with every 7th value NULL. */
  private lazy val rows: Vector[Row3] = {
    import spark.implicits._
    ConsolidationGen.authorList(spark, sf = 0.03, seed = 3)
      .select("cluster", "recordId", "value").as[Row3].collect().toVector
      .map { case (c, rid, v) => (c, rid, if (rid % 7 == 0) null else v) }
  }

  private def toDf(rs: Vector[Row3]): DataFrame = {
    import spark.implicits._
    rs.toDF("cluster", "recordId", "value")
  }

  /** (name, rows, the rows as the step's input). Round-robin over 7
    * partitions puts each cluster's rows in several of them.
    */
  private lazy val shapes: Seq[(String, Vector[Row3], DataFrame)] = {
    val clusterIds = rows.map(_._1).distinct.sorted
    assert(clusterIds.size > parallelism && rows.exists(_._3 == null))
    val kept = clusterIds.take(math.max(1, parallelism / 2)).toSet
    val few  = rows.filter(r => kept(r._1))
    Seq(
      ("scattered", rows, toDf(rows).repartition(7)),
      ("fewer clusters than cores", few, toDf(few)))
  }

  test("RuleGen.generate equals Rules.merge of in-process clusterRules") {
    for ((shape, rs, input) <- shapes) {
      val local = Rules.merge(rs.groupBy(_._1).iterator.flatMap { case (c, g) =>
        Rules.clusterRules(c, g.map(_._3)).valuesIterator
      })
      assert(local.nonEmpty, shape)
      assert(RuleGen.generate(spark, input) == local, shape)
    }
  }

  test("Applier.applyAll equals in-process applyCluster") {
    import spark.implicits._
    val cfg            = PipelineConfig(pivot = GroupingGoldenSpec.pivotConfig("AuthorList"))
    val prepared       = Pipeline.prepare(spark, toDf(rows), cfg)
    val (decisions, _) = Expert.confirmAll(prepared.ranked, prepared.catalog, Judges.authorList, cfg.budget, cfg.agg)
    val initialKeys    = prepared.catalog.keysIterator.map(Applier.keyString).toSet
    assert(decisions.exists(_.adopts))
    for ((shape, rs, input) <- shapes) {
      val local = rs.groupBy(_._1).toVector.flatMap { case (cid, g) =>
        Applier.applyCluster(cid, g.map(r => r._2 -> r._3).toMap, decisions, initialKeys.contains)
          .map { case (rid, v) => (cid, rid, v) }
      }
      val distributed = Applier.applyAll(spark, input, decisions, initialKeys).as[Row3].collect().toVector
      assert(distributed.sorted == local.sorted, shape)
      if (shape == "scattered") assert(local.count(r => !rs.contains(r)) > 0) // some values changed
    }
  }

  test("Consensus.majority agrees with the DuckDB oracle") {
    for ((shape, rs, input) <- shapes) {
      val got = Consensus.majority(spark, input)
        .select(col("cluster").cast("string").as("cluster"), col("golden"))
      withClue(shape)(Oracle.assertEquivalent(got, ConsensusSpec.OracleSql, "t" -> toDf(rs)))
    }
  }
}
