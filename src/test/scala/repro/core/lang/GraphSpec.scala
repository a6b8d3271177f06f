package repro.core.lang

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{GroupingGoldenSpec, Structure}

class GraphSpec extends AnyFunSuite {

  private val cfg = GraphConfig()

  /** The position functions on the SubStr labels of the graph of `s → t`,
    * by the position of `s` each one evaluates to.
    */
  private def positionFunctions(s: String, t: String,
                                constScore: String => Double = _ => 0.0): Map[Int, Set[Pos]] =
    GraphBuilder.build(0, s, t, cfg, constScore).edges.valuesIterator.flatten
      .flatMap { case SubStrF(l, r) => Seq(l, r); case _ => Nil }
      .toSet.groupBy((p: Pos) => Pos.eval(p, s).get)

  test("Figure 2: graph of Street -> St has nodes 1..3 and edges (1,2),(2,3),(1,3)") {
    val g = GraphBuilder.build(0, "Street", "St", cfg)
    assert(g.lastNode == 3)
    assert(g.edges.keySet == Set((1, 2), (2, 3), (1, 3)))
  }

  test("Figure 2: edge (1,2) contains ConstantStr(S) and SubStr to the 'S'") {
    val g      = GraphBuilder.build(0, "Street", "St", cfg)
    val labels = g.edges((1, 2))
    assert(labels.contains(ConstantStr("S")))
    assert(labels.contains(SubStrF(MatchPos(Tc, 1, 'B'), MatchPos(Tc, 1, 'E'))))
  }

  test("Figure 2 / Example 4.7: edge (2,3) carries Prefix(Tl, 1)") {
    val g = GraphBuilder.build(0, "Street", "St", cfg)
    assert(g.edges((2, 3)).contains(PrefixF(Tl, 1)))
  }

  test("Avenue -> Ave carries Prefix(Tl, 1) for 've' (Example 4.7)") {
    val g = GraphBuilder.build(0, "Avenue", "Ave", cfg)
    assert(g.edges((2, 4)).contains(PrefixF(Tl, 1)))
  }

  test("every edge label actually outputs the edge substring") {
    for (tr <- Seq(("Street", "St"), ("9 St", "9th St"), ("David Dewitt", "Dr. Dewitt, D."))) {
      val g = GraphBuilder.build(0, tr._1, tr._2, cfg)
      for (((i, j), labels) <- g.edges; l <- labels) {
        val sub = tr._2.substring(i - 1, j - 1)
        assert(PathCheck.consistent(Seq(l), tr._1, sub), s"label ${l.key} on edge ($i,$j) of $tr")
      }
    }
  }

  test("affix labels disabled by config") {
    val g = GraphBuilder.build(0, "Street", "St", cfg.copy(affix = false))
    val all = g.edges.values.flatten
    assert(!all.exists { case _: PrefixF | _: SuffixF => true; case _ => false })
  }

  test("affix labels only keep the longest prefix at a given start") {
    // t = "Ave": at node 2 the longest prefix of "venue" is "ve" -> edge (2,4),
    // so edge (2,3) must NOT carry Prefix(Tl, 1) (Appendix B static order).
    val g = GraphBuilder.build(0, "Avenue", "Ave", cfg)
    assert(!g.edges((2, 3)).contains(PrefixF(Tl, 1)))
  }

  test("suffix label present: treet -> eet") {
    val g = GraphBuilder.build(0, "Street Q", "eet", cfg)
    assert(g.edges((1, 4)).contains(SuffixF(Tl, 1)))
  }

  test("degenerate graph for overlong sides") {
    val long = "x" * 100
    val g = GraphBuilder.build(0, long, "ab", cfg)
    assert(g.edges == Map((1, 3) -> Vector(ConstantStr("ab"))))
  }

  test("empty rhs yields a graph with no edges") {
    val g = GraphBuilder.build(0, "something", "", cfg)
    assert(g.edges.isEmpty && g.lastNode == 1)
  }

  test("empty lhs yields ConstantStr-only labels") {
    val g = GraphBuilder.build(0, "", "th", cfg)
    assert(g.edges.nonEmpty)
    for ((_, labels) <- g.edges; l <- labels)
      assert(l.isInstanceOf[ConstantStr], l.key)
  }

  test("label caps are respected") {
    val g     = GraphBuilder.build(0, "9 St, 02141 Wisconsin WI", "9th WI WI", cfg)
    val sizes = g.edges.values.map(_.size)
    assert(sizes.max == cfg.maxLabelsPerEdge, sizes)
  }

  test("adjacency lists sorted farthest-first") {
    val g = GraphBuilder.build(0, "Street", "St", cfg)
    assert(g.outEdges(1).map(_._1) == Vector(3, 2))
  }

  test("position functions: constant-term ranking keeps the top-scored term") {
    val score: String => Double = { case "Dr." => 5.0; case _ => 0.0 }
    val pf = positionFunctions("Dr. Dewitt", "Dr. Dewitt", score)
    assert(pf(1).contains(MatchPos(TStr("Dr."), 1, 'B')))
    assert(pf(4).contains(MatchPos(TStr("Dr."), 1, 'E')))
  }

  test("position functions include forward and backward regex MatchPos and ConstPos") {
    val pf = positionFunctions("9 St", "9 St")
    assert(pf(1).contains(MatchPos(Td, 1, 'B')))
    assert(pf(1).contains(MatchPos(Td, -1, 'B')))
    assert(pf(1).contains(ConstPos(1)))
    assert(pf(5).contains(MatchPos(Tl, 1, 'E'))) // end of "t" run = position 5
  }

  test("every position function evaluates to its position") {
    // a SubStr label of edge (i, j) locates an occurrence of t[i, j) in s
    val s = "9th E Ave, 02141"
    val t = "Ave 9th, 02141 E"
    for (((i, j), labels) <- GraphBuilder.build(0, s, t, cfg).edges; SubStrF(l, r) <- labels) {
      val sub = t.substring(i - 1, j - 1)
      val a   = Pos.eval(l, s)
      assert(a.exists(a => s.startsWith(sub, a - 1)), s"pos fn ${l.key} on edge ($i,$j)")
      assert(Pos.eval(r, s) == a.map(_ + sub.length), s"pos fn ${r.key} on edge ($i,$j)")
    }
  }

  test("position-function cap is respected") {
    // Position 3 of "ab12." has 10 candidates: the ends of Tl and T(ab), the
    // beginnings of Td and T(12) (2 each), and 2 ConstPos, which rank last.
    // Edge (3, 6) carries every kept one: position 6 has only ConstPos(6).
    val score: String => Double = { case "ab" | "12" => 1.0; case _ => 0.0 }
    val pf = positionFunctions("ab12.", "ab12.", score)
    assert(pf(3).size == cfg.maxPosFnsPerPosition && !pf(3).exists(_.isInstanceOf[ConstPos]), pf(3))
    assert(pf.values.forall(_.size <= cfg.maxPosFnsPerPosition), pf)
  }

  test("buildPool: every edge's label ids strictly ascend on the golden pools") {
    // the pivot search's alias skip relies on this order
    var edges = 0
    for ((ds, rows) <- GroupingGoldenSpec.readTsv("golden/grouping_pools.tsv").groupBy(_(0))) {
      val sides  = rows.map(r => (r(1), r(2)))
      val global = Pivot.constTermFreq(sides.map(_._1), cfg.maxConstTermLen)
      // the TransAgg pool, then the BothAgg pools of one structure each
      val pools  = sides +: sides.groupBy { case (l, r) => Structure.ofTransformation(l, r) }.values.toVector
      for (pool <- pools) {
        val score = Pivot.constScoreFn(Pivot.constTermFreq(pool.map(_._1), cfg.maxConstTermLen), global)
        for (g <- GraphBuilder.buildPool(pool, cfg, score).graphs; e <- g.target.indices) {
          for (k <- g.labOff(e) + 1 until g.labOff(e + 1))
            assert(g.labs(k - 1) < g.labs(k), s"$ds: ${g.s} -> ${g.t}, edge $e")
          edges += 1
        }
      }
    }
    assert(edges > 0)
  }
}
