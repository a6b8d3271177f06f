package repro.core.lang

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SparkSpec
import repro.core.{BestDir, RuleGen, Selection}
import repro.data.ConsolidationGen

/** The inverted index I (Section 4.2) equals a naive one read off the pool's
  * `IntGraph`s: per label, the graphs that hold it in ascending order, each
  * with the label's packed edges `(i << 8) | j` in ascending order; and each
  * label's representative is the smallest label id with equal postings.
  */
class LabelIndexSpec extends SparkSpec {

  private val datasets = Seq[(String, (SparkSession, Double, Long) => DataFrame)](
    "JournalTitle" -> ConsolidationGen.journalTitle,
    "Address"      -> ConsolidationGen.address,
    "AuthorList"   -> ConsolidationGen.authorList,
  )

  for ((name, gen) <- datasets)
    test(s"$name: the index equals the naive one on every structure pool and the single pool") {
      val values = gen(spark, 0.02, 5L).select("cluster", "recordId", "value")
      val trans  = Selection.select(RuleGen.generate(spark, values).keys.toSeq, BestDir)
      val pools  = trans.groupBy(_.structKey).toVector.sortBy(_._1).map(_._2) :+ trans
      val global = Pivot.constTermFreq(trans.map(_.lhs), GraphConfig().maxConstTermLen)
      for (affix <- Seq(true, false); pool <- pools) {
        val cfg   = GraphConfig(affix)
        val sides = pool.map(tr => (tr.lhs, tr.rhs)).distinct.sorted
        val score = Pivot.constScoreFn(Pivot.constTermFreq(sides.map(_._1), cfg.maxConstTermLen), global)
        check(GraphBuilder.buildPool(sides, cfg, score), s"$name pool of ${sides.size} (affix = $affix)")
      }
    }

  test("aliased labels and a graph with an empty rhs") {
    val built = GraphBuilder.buildPool(Vector(("ab c", "c"), ("x", ""), ("de f", "f")), GraphConfig(), _ => 0.0)
    assert(built.graphs(1).lastNode == 1)
    val rep = check(built, "hand-made pool")
    assert(rep.indices.count(f => rep(f) != f) >= 1)
  }

  /** Checks the index of `built` against the naive one; returns its representatives. */
  private def check(built: GraphPool, clue: String): Array[Int] = {
    val n     = built.dict.numLabels
    val index = new Pivot.LabelIndex(built.graphs, n)
    val naive = naivePostings(built)
    val got = Vector.tabulate(n) { f =>
      (index.postOff(f) until index.postOff(f + 1)).toVector.map { p =>
        index.postGid(p) -> index.edges.slice(index.edgeOff(p), index.edgeOff(p + 1)).toVector
      }
    }
    assert(got == naive, clue)
    val first = naive.zipWithIndex.groupMapReduce(_._1)(_._2)(math.min)
    val rep   = index.representatives()
    assert(rep.toVector == naive.map(first), clue)
    rep
  }

  /** Per label id, its (graph, ascending packed edges) postings by ascending graph. */
  private def naivePostings(built: GraphPool): Vector[Vector[(Int, Vector[Int])]] = {
    val triples = for {
      (g, gid) <- built.graphs.zipWithIndex
      i        <- 1 until g.lastNode
      e        <- g.nodeOff(i) until g.nodeOff(i + 1)
      k        <- g.labOff(e) until g.labOff(e + 1)
    } yield (g.labs(k), gid, (i << 8) | g.target(e))
    val byLabel = triples.groupBy(_._1)
    Vector.tabulate(built.dict.numLabels) { f =>
      byLabel.getOrElse(f, Vector.empty).groupBy(_._2).toVector.sortBy(_._1)
        .map { case (gid, ts) => gid -> ts.map(_._3).sorted }
    }
  }
}
