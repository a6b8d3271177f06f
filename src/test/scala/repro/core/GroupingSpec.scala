package repro.core

import repro.SparkSpec
import repro.core.lang.{PathCheck, Pivot, PivotConfig}

class GroupingSpec extends SparkSpec {

  private val cfg = PivotConfig()

  private val pool = Vector(
    Trans("Street", "St"), Trans("Avenue", "Ave"), Trans("Road", "Rd"),
    Trans("9th", "9"), Trans("3rd", "3"), Trans("22nd", "10"),
    Trans("Wisconsin", "WI"), Trans("California", "CA"),
    Trans("java(tm)", "java"), Trans("linux(r)", "linux"))

  test("NoAgg: one group per transformation") {
    val gs = Grouping.group(spark, pool, NoAgg, cfg)
    assert(gs.size == pool.size)
    assert(gs.forall(_.members.size == 1))
  }

  test("StructAgg groups by structure only") {
    val gs = Grouping.group(spark, pool, StructAgg, cfg)
    val ordinals = gs.find(_.members.contains(Trans("9th", "9"))).get
    // 22nd -> 10 shares the structure dl -> d with 9th -> 9 and 3rd -> 3
    assert(ordinals.members.toSet ==
      Set(Trans("9th", "9"), Trans("3rd", "3"), Trans("22nd", "10")))
    assert(ordinals.structKey.contains(Structure.ofTransformation("9th", "9")))
    assert(ordinals.path.isEmpty)
  }

  test("BothAgg splits 22nd->10 from the true ordinals") {
    val gs = Grouping.group(spark, pool, BothAgg, cfg)
    val sets = gs.map(_.members.toSet)
    assert(sets.contains(Set(Trans("9th", "9"), Trans("3rd", "3"))), sets)
    assert(sets.contains(Set(Trans("22nd", "10"))), sets)
  }

  test("BothAgg groups are a partition with struct and path populated") {
    val gs = Grouping.group(spark, pool, BothAgg, cfg)
    assert(gs.flatMap(_.members).toSet == pool.toSet)
    assert(gs.flatMap(_.members).size == pool.size)
    for (g <- gs) {
      assert(g.structKey.isDefined && g.path.isDefined)
      for (m <- g.members) {
        assert(m.structKey == g.structKey.get)
        assert(PathCheck.consistent(g.path.get, m.lhs, m.rhs), s"${g.id} vs $m")
      }
    }
  }

  test("TransAgg groups are a partition with paths consistent across structures") {
    val gs = Grouping.group(spark, pool, TransAgg, cfg)
    assert(gs.flatMap(_.members).toSet == pool.toSet)
    for (g <- gs; m <- g.members)
      assert(PathCheck.consistent(g.path.get, m.lhs, m.rhs))
    // TransAgg can merge across structure boundaries, so it has at most as
    // many groups as BothAgg for the same pool.
    val both = Grouping.group(spark, pool, BothAgg, cfg)
    assert(gs.size <= both.size)
  }

  /** (pool key, group id, path key, path, members) per group, in output order. */
  private def described(gs: Vector[RuleGroup]) =
    gs.map(g => (g.structKey.getOrElse(""), g.id, PathCheck.pathKey(g.path.get), g.path.get, g.members))

  /** `Pivot.groupByPrograms` run in-process over each pool, pools by key. */
  private def inProcess(pools: Vector[(String, Vector[Trans])], all: Vector[Trans], cfg: PivotConfig) = {
    val freq = Pivot.constTermFreq(all.map(_.lhs), cfg.graph.maxConstTermLen)
    for ((key, pool) <- pools.sortBy(_._1); g <- Pivot.groupByPrograms(pool, cfg, freq))
      yield (key, s"prog:${key.length}:$key:${g.pathKey}", g.pathKey, g.path, g.members.sortBy(tr => (tr.lhs, tr.rhs)))
  }

  private val goldenPools = GroupingGoldenSpec.readTsv("golden/grouping_pools.tsv")
    .groupBy(_(0)).toVector.sortBy(_._1)
    .map { case (ds, rows) => ds -> rows.map(r => Trans(r(1), r(2))) }

  test("BothAgg through Spark equals in-process groupByPrograms per structure pool") {
    for ((ds, trans) <- goldenPools :+ ("handmade" -> pool)) {
      val cfg = GroupingGoldenSpec.pivotConfig(ds)
      val want = inProcess(trans.groupBy(_.structKey).toVector, trans, cfg)
      assert(described(Grouping.group(spark, trans, BothAgg, cfg)) == want, ds)
    }
  }

  test("TransAgg through Spark equals in-process groupByPrograms over the whole pool") {
    for ((ds, trans) <- goldenPools :+ ("handmade" -> pool)) {
      val cfg = GroupingGoldenSpec.pivotConfig(ds)
      assert(described(Grouping.group(spark, trans, TransAgg, cfg)) == inProcess(Vector("" -> trans), trans, cfg), ds)
    }
  }

  test("rank orders by aggregate frequency, descending") {
    def rule(a: String, b: String, n: Int): (RuleKey, MatchingRule) = {
      val k = RuleKey.of(a, b)
      k -> MatchingRule(k, (1 to n).map(i => Occ(i, s"$a $i", 1, a.length)).toSet, Set.empty)
    }
    val catalog = Map(rule("9th", "9", 5), rule("3rd", "3", 2), rule("22nd", "10", 1))
    val g1 = RuleGroup("a", None, None, Vector(Trans("9th", "9"), Trans("3rd", "3"))) // freq 7
    val g2 = RuleGroup("b", None, None, Vector(Trans("22nd", "10")))                  // freq 1
    assert(Grouping.rank(Seq(g2, g1), catalog).map(_.id) == Vector("a", "b"))
  }

  test("empty pool produces no groups for all methods") {
    for (m <- Seq(NoAgg, StructAgg, TransAgg, BothAgg))
      assert(Grouping.group(spark, Vector.empty, m, cfg).isEmpty, s"$m")
  }

  test("BothAgg is deterministic across runs") {
    val a = Grouping.group(spark, pool, BothAgg, cfg).map(g => (g.id, g.members))
    val b = Grouping.group(spark, pool.reverse, BothAgg, cfg).map(g => (g.id, g.members))
    assert(a == b)
  }
}
