package repro.core.lang

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Trans
import scala.util.Random

/** The local and global thresholds (Section 4.3) lose nothing: with neither
  * the Appendix-B sample nor the expansion budget in play, every
  * transformation's pivot path is contained by as many pool graphs under
  * all four pruning variants, and by as many as the best path found by
  * enumerating every path of its graph up to θ.
  */
class PivotPruningSpec extends AnyFunSuite {

  private val theta = 3
  private val base  = PivotConfig(maxPathLen = theta, sampleCap = 0, searchBudget = 0)
  private val variants = Seq(
    "NoThrsh"     -> base.copy(localThreshold = false, globalThreshold = false),
    "LocalThrsh"  -> base.copy(localThreshold = true, globalThreshold = false),
    "GlobalThrsh" -> base.copy(localThreshold = false, globalThreshold = true),
    "AllThrsh"    -> base.copy(localThreshold = true, globalThreshold = true),
  )

  private def word(r: Random, min: Int, max: Int): String =
    Seq.fill(min + r.nextInt(max - min + 1))("abcAB1".charAt(r.nextInt(6))).mkString

  /** Small pools of two-token values. Most members of a pool follow one of a
    * few rewriting families, so multi-label programs are shared; the rest
    * are noise.
    */
  private def pool(r: Random): Vector[Trans] = {
    val family = r.nextInt(4)
    Vector.fill(3 + r.nextInt(4)) {
      val (a, b) = (word(r, 1, 4), word(r, 1, 4))
      val rhs = if (r.nextInt(4) == 0) word(r, 1, 4) else family match {
        case 0 => s"${a.head}${b.head}"
        case 1 => s"$b ${a.head}"
        case 2 => a.take(2) + "."
        case _ => s"$b$a".take(5)
      }
      Trans(s"$a $b", rhs)
    }.distinct
  }

  /** Per graph and label, the label's edges. */
  private def edgesByLabel(g: TGraph): Map[Label, Seq[(Int, Int)]] =
    g.edges.toSeq.flatMap { case (ij, ls) => ls.map(_ -> ij) }.groupMap(_._1)(_._2)

  /** Reachable nodes after following `l` from `reach`. */
  private def step(byLabel: Map[Label, Seq[(Int, Int)]], reach: Set[Int], l: Label): Set[Int] =
    byLabel.getOrElse(l, Nil).collect { case (i, j) if reach(i) => j }.toSet

  /** How many of `graphs` contain `path` (a path from node 1 to their last node). */
  private def score(path: Seq[Label], graphs: Seq[TGraph]): Int =
    graphs.count { g =>
      val byLabel = edgesByLabel(g)
      path.foldLeft(Set(1))((reach, l) => step(byLabel, reach, l)).contains(g.lastNode)
    }

  /** The best score over every path of `g` with at most θ labels. */
  private def bruteForce(g: TGraph, graphs: Seq[TGraph]): Int = {
    val byLabel = graphs.map(edgesByLabel)
    def go(node: Int, depth: Int, reach: Seq[Set[Int]]): Int =
      g.outEdges(node).iterator.flatMap { case (j, ls) => ls.iterator.map(j -> _) }.map { case (j, l) =>
        val next = graphs.indices.map(k => step(byLabel(k), reach(k), l))
        if (j == g.lastNode) graphs.indices.count(k => next(k).contains(graphs(k).lastNode))
        else if (depth + 1 < theta) go(j, depth + 1, next)
        else 0
      }.maxOption.getOrElse(0)
    go(1, 0, graphs.map(_ => Set(1)))
  }

  test("pivot-path scores agree across pruning variants and with brute force") {
    val r = new Random(2019)
    for (_ <- 1 to 25) {
      val trans   = pool(r).sortBy(tr => (tr.lhs, tr.rhs))
      val scoreFn = Pivot.constScoreFn(Pivot.constTermFreq(trans.map(_.lhs), base.graph.maxConstTermLen), Map.empty)
      val graphs  = trans.zipWithIndex.map { case (tr, i) => GraphBuilder.build(i, tr.lhs, tr.rhs, base.graph, scoreFn) }
      val best    = graphs.map(bruteForce(_, graphs))
      for ((name, cfg) <- variants) {
        val groups = Pivot.groupByPrograms(trans, cfg, Map.empty)
        assert(groups.flatMap(_.members).sortBy(tr => (tr.lhs, tr.rhs)) == trans, name)
        for (grp <- groups; m <- grp.members)
          assert(score(grp.path, graphs) == best(trans.indexOf(m)),
            s"$name: pivot ${grp.pathKey} of $m in pool $trans")
      }
    }
  }
}
