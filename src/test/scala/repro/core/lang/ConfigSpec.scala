package repro.core.lang

import org.scalatest.funsuite.AnyFunSuite

/** Config invariants the graph builder and the pivot search rely on. */
class ConfigSpec extends AnyFunSuite {

  private def rejects(cfg: => Any): Unit = { intercept[IllegalArgumentException](cfg); () }

  test("defaults and the bounds themselves are accepted") {
    GraphConfig()
    PivotConfig()
    GraphConfig(maxSideLen = 1, maxPosFnsPerPosition = 1, maxLabelsPerEdge = 1, maxConstTermLen = 1)
    GraphConfig(maxSideLen = 62)
    PivotConfig(maxPathLen = 1, sampleCap = 0, searchBudget = 0)
  }

  test("GraphConfig rejects maxSideLen = 0") { rejects(GraphConfig(maxSideLen = 0)) }

  test("GraphConfig rejects maxSideLen = 63: node 64 overflows the reachability bitmask") {
    rejects(GraphConfig(maxSideLen = 63))
  }

  test("GraphConfig rejects maxLabelsPerEdge = 0") { rejects(GraphConfig(maxLabelsPerEdge = 0)) }

  test("GraphConfig rejects maxPosFnsPerPosition = 0") { rejects(GraphConfig(maxPosFnsPerPosition = 0)) }

  test("GraphConfig rejects maxConstTermLen = 0") { rejects(GraphConfig(maxConstTermLen = 0)) }

  test("PivotConfig rejects maxPathLen = 0") { rejects(PivotConfig(maxPathLen = 0)) }

  test("PivotConfig rejects sampleCap = -1") { rejects(PivotConfig(sampleCap = -1)) }

  test("PivotConfig rejects searchBudget = -1") { rejects(PivotConfig(searchBudget = -1)) }

  test("ExpertConfig rejects sampleSize = 0: an empty sample would approve every group unseen") {
    repro.core.ExpertConfig(sampleSize = 1)
    rejects(repro.core.ExpertConfig(sampleSize = 0))
  }

  test("62-char sides get full graphs and pivot paths at maxSideLen = 62") {
    val cfg = GraphConfig(maxSideLen = 62, maxPosFnsPerPosition = 2, maxLabelsPerEdge = 2)
    val t   = "ab" * 31
    val g   = GraphBuilder.build(0, "ba" * 31, t, cfg)
    assert(g.lastNode == 63 && g.edges.size == 62 * 63 / 2)
    val pool = Seq(repro.core.Trans("ba" * 31, t), repro.core.Trans("Ab" * 31, t))
    val gs   = Pivot.groupByPrograms(pool, PivotConfig(graph = cfg), Map.empty)
    assert(gs.flatMap(_.members).toSet == pool.toSet)
    for (g <- gs; m <- g.members) assert(PathCheck.consistent(g.path, m.lhs, m.rhs))
  }
}
