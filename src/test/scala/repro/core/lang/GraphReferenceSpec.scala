package repro.core.lang

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SparkSpec
import repro.core.{BestDir, RuleGen, Selection}
import repro.data.ConsolidationGen

/** `GraphBuilder.buildPool` equals a brute-force builder that works in
  * `Label` objects straight from Definition 4 and Appendix B, on every pool
  * `Grouping` searches for generated data, and its label ids follow the
  * static order `(staticRank, key)`.
  */
class GraphReferenceSpec extends SparkSpec {
  import GraphReferenceSpec._

  private val datasets = Seq[(String, (SparkSession, Double, Long) => DataFrame)](
    "JournalTitle" -> ConsolidationGen.journalTitle,
    "Address"      -> ConsolidationGen.address,
    "AuthorList"   -> ConsolidationGen.authorList,
  )

  for ((name, gen) <- datasets)
    test(s"$name: buildPool equals the reference on every structure pool and the single pool") {
      val values  = gen(spark, 0.02, 5L).select("cluster", "recordId", "value")
      val trans   = Selection.select(RuleGen.generate(spark, values).keys.toSeq, BestDir)
      val pools   = trans.groupBy(_.structKey).toVector.sortBy(_._1).map(_._2) :+ trans
      val global  = Pivot.constTermFreq(trans.map(_.lhs), GraphConfig().maxConstTermLen)
      var graphs  = 0
      for (affix <- Seq(true, false); pool <- pools) {
        val cfg   = GraphConfig(affix)
        val sides = pool.map(tr => (tr.lhs, tr.rhs)).distinct.sorted
        val score = Pivot.constScoreFn(Pivot.constTermFreq(sides.map(_._1), cfg.maxConstTermLen), global)
        val built = GraphBuilder.buildPool(sides, cfg, score)
        for (((s, t), g) <- sides.zipWithIndex) {
          assert(built.view(g, g).edges == reference(s, t, cfg, score), s"graph of $s -> $t (affix = $affix)")
          graphs += 1
        }
        val labels = (0 until built.dict.numLabels).map(built.dict.label)
        assert(labels.distinct.size == labels.size)
        assert(labels == labels.sortBy(l => (Label.staticRank(l), l.key)), s"label ids of a pool of ${sides.size}")
      }
      assert(pools.size > 2 && graphs > 2 * trans.size)
    }

  test("buildPool equals the reference when one position key prefixes another") {
    // MP(T(a),1,B) at position 1 prefixes MP(T(a),1,B),1,B) at position 3
    val score: String => Double = Map("a" -> 2.0, "a),1,B" -> 3.0).withDefaultValue(0.0)
    val sides = Vector(("axa),1,B", "a),1,B"), ("axa),1,B", "xa),1"), ("a),1,Bxa", "B)a"), ("xa),1,B", "a),1,B)"))
    for (affix <- Seq(true, false)) {
      val cfg   = GraphConfig(affix)
      val built = GraphBuilder.buildPool(sides, cfg, score)
      for (((s, t), g) <- sides.zipWithIndex) assert(built.view(g, g).edges == reference(s, t, cfg, score), s"graph of $s -> $t")
      val labels = (0 until built.dict.numLabels).map(built.dict.label)
      assert(labels.exists { case SubStrF(MatchPos(TStr("a),1,B"), _, _), _) => true; case _ => false })
      assert(labels == labels.sortBy(l => (Label.staticRank(l), l.key)))
    }
  }

  test("affix labels order by key for every term and k in -40..40") {
    val d      = new LangDict
    val codes  = for (term <- 0 until 4; k <- -40 to 40 if k != 0; c <- Seq(d.prefix(term, k), d.suffix(term, k))) yield c
    d.orderPositions()
    d.number(Seq(codes.toArray))
    val labels = (0 until d.numLabels).map(d.label)
    assert(labels.size == codes.size)
    assert(labels == labels.sortBy(_.key))
  }
}

object GraphReferenceSpec {

  /** The edges of the graph of `s → t`, from the definitions. */
  def reference(s: String, t: String, cfg: GraphConfig, constScore: String => Double): Map[(Int, Int), Vector[Label]] =
    if (s.length > cfg.maxSideLen || t.length > cfg.maxSideLen)
      if (t.isEmpty) Map.empty else Map((1, t.length + 1) -> Vector(ConstantStr(t)))
    else {
      val fns = positionFunctions(s, cfg, constScore)
      (for (i <- 1 to t.length; j <- i + 1 to t.length + 1) yield {
        val sub = t.substring(i - 1, j - 1)
        val subStrs = for {
          x <- 0 to s.length - sub.length if s.startsWith(sub, x)
          f <- fns(x + 1)
          g <- fns(x + 1 + sub.length)
        } yield SubStrF(f, g)
        val affixes = if (cfg.affix) affixLabels(s, t, i, j) else Nil
        val capped  = (subStrs ++ affixes).distinct.sortBy(l => (Label.staticRank(l), l.key)).take(cfg.maxLabelsPerEdge - 1)
        (i, j) -> (capped.toVector :+ ConstantStr(sub))
      }).toMap
    }

  /** Position functions of each position 1..|s|+1 of `s`, sorted by
    * `(Pos.rank, key)` and cut at `maxPosFnsPerPosition`: the regex
    * MatchPos, the MatchPos of the top-scored constant term beginning (or
    * ending) there, and the ConstPos.
    */
  private def positionFunctions(s: String, cfg: GraphConfig, constScore: String => Double): Map[Int, Seq[Pos]] = {
    val terms = (for (a <- 0 until s.length; b <- a + 1 to math.min(s.length, a + cfg.maxConstTermLen))
      yield s.substring(a, b)).distinct.filter(constScore(_) > 0).map(u => u -> Term.matches(TStr(u), s))
    // the highest score, ties to the smaller string
    def top(cands: Seq[(String, Vector[(Int, Int)])]): Option[String] =
      cands.map(_._1).sortWith((u, v) => constScore(u) > constScore(v) || (constScore(u) == constScore(v) && u < v)).headOption
    def matchPos(t: Term, x: Int, dir: Char): Seq[Pos] = {
      val ms = Term.matches(t, s)
      val k  = ms.indexWhere(m => (if (dir == 'B') m._1 else m._2) == x) + 1
      if (k == 0) Nil else Seq(MatchPos(t, k, dir), MatchPos(t, k - ms.length - 1, dir))
    }
    (1 to s.length + 1).map { x =>
      val regex   = Term.regexTerms.flatMap(t => matchPos(t, x, 'B') ++ matchPos(t, x, 'E'))
      val begin   = top(terms.filter(_._2.exists(_._1 == x))).toSeq.flatMap(u => matchPos(TStr(u), x, 'B'))
      val end     = top(terms.filter(_._2.exists(_._2 == x))).toSeq.flatMap(u => matchPos(TStr(u), x, 'E'))
      val const   = ConstPos(x) +: (if (x <= s.length) Seq(ConstPos(x - s.length - 1)) else Nil)
      x -> (regex ++ begin ++ end ++ const).distinct.sortBy(p => (Pos.rank(p), p.key)).take(cfg.maxPosFnsPerPosition)
    }.toMap
  }

  /** Definition 6 with Appendix B's longest-only rule: the k-th match of a
    * regex term labels the edge from `i` over the longest common prefix of
    * `t[i..]` and the match (Prefix), or up to `j` over the longest common
    * suffix of `t[..j)` and the match (Suffix), with `k` counted from both
    * ends.
    */
  private def affixLabels(s: String, t: String, i: Int, j: Int): Seq[Label] =
    for {
      term         <- Term.regexTerms
      ms            = Term.matches(term, s)
      ((b, e), k0) <- ms.zipWithIndex
      m             = s.substring(b - 1, e - 1)
      label        <- {
        val pre = t.drop(i - 1).zip(m).takeWhile { case (x, y) => x == y }.size
        val suf = t.take(j - 1).reverse.zip(m.reverse).takeWhile { case (x, y) => x == y }.size
        (if (pre >= 1 && i + pre == j) Seq(PrefixF(term, k0 + 1), PrefixF(term, k0 - ms.length)) else Nil) ++
          (if (suf >= 1 && j - suf == i) Seq(SuffixF(term, k0 + 1), SuffixF(term, k0 - ms.length)) else Nil)
      }
    } yield label
}
