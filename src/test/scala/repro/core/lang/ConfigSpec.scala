package repro.core.lang

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Trans

/** Config invariants the graph builder and the pivot search rely on. */
class ConfigSpec extends AnyFunSuite {

  private def rejects(cfg: => Any): Unit = { intercept[IllegalArgumentException](cfg); () }

  private val maxSideLen = GraphConfig().maxSideLen

  test("defaults and the bounds themselves are accepted") {
    GraphConfig()
    PivotConfig()
    PivotConfig(maxPathLen = 1, sampleCap = 0, searchBudget = 0)
  }

  test("PivotConfig rejects maxPathLen = 0") { rejects(PivotConfig(maxPathLen = 0)) }

  test("PivotConfig rejects sampleCap = -1") { rejects(PivotConfig(sampleCap = -1)) }

  test("PivotConfig rejects searchBudget = -1") { rejects(PivotConfig(searchBudget = -1)) }

  test("maxSideLen is at most 62, as the reachability bitmask needs") {
    assert(maxSideLen >= 1 && maxSideLen <= 62, maxSideLen)
  }

  test("sides of maxSideLen chars get full graphs and pivot paths") {
    val n = maxSideLen
    val t = ("ab" * n).take(n)
    val g = GraphBuilder.build(0, ("ba" * n).take(n), t, GraphConfig())
    assert(g.lastNode == n + 1 && g.edges.size == n * (n + 1) / 2)
    val pool = Seq(Trans(("ba" * n).take(n), t), Trans(("Ab" * n).take(n), t))
    val gs   = Pivot.groupByPrograms(pool, PivotConfig(), Map.empty)
    assert(gs.flatMap(_.members).toSet == pool.toSet)
    for (g <- gs; m <- g.members) assert(PathCheck.consistent(g.path, m.lhs, m.rhs))
  }

  test("one char past maxSideLen gives the degenerate graph") {
    val short = "ab" * 3
    val long  = "x" * (maxSideLen + 1)
    assert(GraphBuilder.build(0, long, short, GraphConfig()).edges == Map((1, 7) -> Vector(ConstantStr(short))))
    assert(GraphBuilder.build(0, short, long, GraphConfig()).edges ==
      Map((1, maxSideLen + 2) -> Vector(ConstantStr(long))))
  }
}
