package repro.core.lang

/** Graph construction settings. `affix` turns the affix labels (Definition
  * 6) on or off, for the NoAffix experiments. The paper prunes labels with a
  * manually-defined static order but gives no constants (Appendix B); the
  * fixed caps below keep the O(|s|²|t|²) construction and the path search
  * bounded.
  */
final case class GraphConfig(affix: Boolean = true) extends Serializable {

  /** Longer sides get a degenerate graph. Node ids reach maxSideLen + 1, and
    * the pivot search keeps reachable nodes in a Long bitmask, so this must
    * stay at most 62.
    */
  final val maxSideLen = 30
  final val maxPosFnsPerPosition = 8
  final val maxLabelsPerEdge = 12
  final val maxConstTermLen = 6
}

/** Transformation graph of `s → t` (Definition 4): nodes 1..|t|+1, an edge
  * `(i, j)` for every substring `t[i, j)`, labeled with the string functions
  * that produce that substring from `s`. This is the `Label`-object view of
  * an [[IntGraph]].
  */
final case class TGraph(id: Int, s: String, t: String,
                        edges: Map[(Int, Int), Vector[Label]]) {
  def lastNode: Int = t.length + 1
}

/** A transformation graph over the label ids of its pool's [[LangDict]], in
  * CSR form. The out-edges of node `i` are `nodeOff(i) until nodeOff(i + 1)`,
  * farthest target first (reaching the last node early sets the pruning
  * thresholds sooner — Section 4.4's observation). Edge `e` goes to
  * `target(e)` and carries the labels `labs(labOff(e) until labOff(e + 1))`:
  * the capped labels in static order, then the edge's `ConstantStr`.
  */
final class IntGraph(val s: String, val t: String, val nodeOff: Array[Int], val target: Array[Int],
                     val labOff: Array[Int], val labs: Array[Int]) {
  def lastNode: Int = t.length + 1

  /** The label `ConstantStr(t)` of edge (1, |t|+1); `t` must be non-empty. */
  def wholeConst: Int = labs(labOff(nodeOff(1) + 1) - 1)
}

/** The graphs of one pool, sharing one interned [[LangDict]]. */
final class GraphPool(val dict: LangDict, val graphs: Vector[IntGraph]) {

  /** Graph `g` as a [[TGraph]] numbered `id`. */
  def view(g: Int, id: Int): TGraph = {
    val ig    = graphs(g)
    val edges = Map.newBuilder[(Int, Int), Vector[Label]]
    for (i <- 1 until ig.lastNode; e <- ig.nodeOff(i) until ig.nodeOff(i + 1))
      edges += (i, ig.target(e)) -> (ig.labOff(e) until ig.labOff(e + 1)).iterator.map(k => dict.label(ig.labs(k))).toVector
    TGraph(id, ig.s, ig.t, edges.result())
  }
}

object GraphBuilder {

  /** Build the transformation graph for `s → t` (Algorithm 4).
    *
    * `constScore` ranks constant-string terms (Appendix B:
    * freq-in-structure-group / sqrt(freq-global)); per position only the
    * top-ranked constant term is kept. Sides longer than `maxSideLen` get a
    * degenerate single-`ConstantStr` graph (DESIGN.md §6).
    */
  def build(id: Int, s: String, t: String, cfg: GraphConfig,
            constScore: String => Double = _ => 0.0): TGraph =
    buildPool(Vector((s, t)), cfg, constScore).view(0, id)

  /** The graphs of `sides` (lhs, rhs), graph `g` for `sides(g)`, over one
    * dictionary whose label ids follow the static order.
    */
  def buildPool(sides: Seq[(String, String)], cfg: GraphConfig,
                constScore: String => Double): GraphPool = {
    val dict      = new LangDict
    val positions = sides.map { case (s, t) =>
      if (overlong(s, t, cfg)) Array.empty[IntBuf] else positionIds(dict, s, cfg, constScore)
    }
    dict.orderPositions()
    val builder = new PoolBuilder(dict, cfg)
    val raw     = sides.lazyZip(positions).map { case ((s, t), ps) => builder.graph(s, t, ps) }.toVector
    val ids     = dict.number(raw.map(_.codes))
    // Every edge holds its capped labels in static (= id) order and then its
    // ConstantStr, which has the top static rank, so the ids strictly ascend
    // along each edge. The pivot search's alias skip relies on it.
    val graphs = raw.map { r =>
      val labs = new Array[Int](r.codes.length)
      var k = 0
      while (k < labs.length) { labs(k) = ids.get(r.codes(k)); k += 1 }
      new IntGraph(r.s, r.t, r.nodeOff, r.target, r.labOff, labs)
    }
    new GraphPool(dict, graphs)
  }

  /** An [[IntGraph]] whose labels are still `LangDict` codes. */
  private final class RawGraph(val s: String, val t: String, val nodeOff: Array[Int],
                               val target: Array[Int], val labOff: Array[Int], val codes: Array[Long])

  private def overlong(s: String, t: String, cfg: GraphConfig): Boolean =
    s.length > cfg.maxSideLen || t.length > cfg.maxSideLen

  /** Builds the graphs of one pool, one after another, reusing its buffers. */
  private final class PoolBuilder(dict: LangDict, cfg: GraphConfig) {
    private val firsts = new Firsts(dict, cfg.maxLabelsPerEdge - 1)
    private val occ    = new IntBuf
    private val codes  = new LongBuf
    // per regex-term match q of the current lhs (with affix labels on): its
    // codes Prefix(k), Prefix(k-m-1), Suffix(k), Suffix(k-m-1) at 4q until
    // 4q + 4, and per node x of t, at q * (|t| + 1) + x - 1, the end of the
    // edge its Prefix labels from x and the start of the edge its Suffix
    // labels to x (x itself where there is none)
    private val affCodes = new LongBuf
    private val preEnd   = new IntBuf
    private val sufStart = new IntBuf
    // capped position functions of the current lhs, in static order, and per
    // position the end of its regex (`end0`) and of its MatchPos (`end1`) run
    private var posFns: Array[Array[Int]] = null
    private var end0, end1: Array[Int]    = null

    /** The graph of `s → t` given the position functions of `s`. */
    def graph(s: String, t: String, positions: Array[IntBuf]): RawGraph = {
      val last = t.length + 1
      // degenerate graph: the one edge (1, |t|+1) labeled ConstantStr(t), none for an empty t
      if (overlong(s, t, cfg))
        return if (t.isEmpty) new RawGraph(s, t, new Array[Int](3), Array.emptyIntArray, Array(0), Array.emptyLongArray)
        else new RawGraph(s, t, Array.tabulate(last + 2)(i => if (i <= 1) 0 else 1), Array(last),
                          Array(0, 1), Array(dict.constant(t)))

      capPositions(positions)
      affixMatches(s, t)

      // ConstantStr and SubStr labels for every substring t[i, j), node by
      // node, farthest target first.
      val nEdges  = t.length * last / 2
      val nodeOff = new Array[Int](last + 2)
      val target  = new Array[Int](nEdges)
      val labOff  = new Array[Int](nEdges + 1)
      codes.clear()
      var e = 0
      var i = 1
      while (i <= t.length) {
        nodeOff(i) = e
        var j = last
        while (j > i) {
          val sub = t.substring(i - 1, j - 1)
          occ.clear()
          var x = s.indexOf(sub)
          while (x >= 0) { occ += x; x = s.indexOf(sub, x + 1) }
          // The labels of each static rank in turn, until the cap is full:
          // the later ranks sort after every label kept so far.
          firsts.clear()
          subStrs(sub.length, 0)
          if (!firsts.full) {
            var q = 0
            while (q < affCodes.n / 4) {
              if (preEnd(q * last + i - 1) == j) { firsts.offer(affCodes(4 * q)); firsts.offer(affCodes(4 * q + 1)) }
              if (sufStart(q * last + j - 1) == i) { firsts.offer(affCodes(4 * q + 2)); firsts.offer(affCodes(4 * q + 3)) }
              q += 1
            }
          }
          if (!firsts.full) subStrs(sub.length, 2)
          if (!firsts.full) subStrs(sub.length, 3)
          var k = 0
          while (k < firsts.n) { codes += firsts.a(k); k += 1 }
          // Definition 4 guarantees exactly one ConstantStr per edge; it is the
          // fallback that keeps every graph connected, so it is exempt from the cap.
          codes += dict.constant(sub)
          target(e) = j
          e += 1
          labOff(e) = codes.n
          j -= 1
        }
        i += 1
      }
      nodeOff(last) = e
      nodeOff(last + 1) = e
      new RawGraph(s, t, nodeOff, target, labOff, java.util.Arrays.copyOf(codes.a, codes.n))
    }

    /** Offers the SubStr labels of static rank `rank` over every occurrence
      * in `occ` of a substring of length `len`.
      */
    private def subStrs(len: Int, rank: Int): Unit = {
      var o = 0
      while (o < occ.n) {
        val x  = occ(o) + 1
        val ls = posFns(x); val rs = posFns(x + len)
        // the position functions whose Pos.rank can give the SubStr `rank`
        val lEnd = if (rank == 0) end0(x) else if (rank == 2) end1(x) else ls.length
        val rEnd = if (rank == 0) end0(x + len) else if (rank == 2) end1(x + len) else rs.length
        var a = 0
        while (a < lEnd) {
          var b = 0
          while (b < rEnd) {
            if (rank == 0 || Label.subStrRank(dict.posRank(ls(a)), dict.posRank(rs(b))) == rank)
              firsts.offer(dict.subStr(ls(a), rs(b)))
            b += 1
          }
          a += 1
        }
        o += 1
      }
    }

    /** Keeps the first `maxPosFnsPerPosition` position functions of each
      * position, in static order.
      */
    private def capPositions(positions: Array[IntBuf]): Unit = {
      posFns = new Array[Array[Int]](positions.length)
      end0 = new Array[Int](positions.length)
      end1 = new Array[Int](positions.length)
      var x = 1
      while (x < positions.length) {
        val buf = positions(x)
        // insertion sort: a position has at most ten candidates
        var k = 1
        while (k < buf.n) {
          val p = buf(k)
          var m = k
          while (m > 0 && dict.posBefore(p, buf(m - 1))) { buf.a(m) = buf(m - 1); m -= 1 }
          buf.a(m) = p
          k += 1
        }
        val fns = java.util.Arrays.copyOf(buf.a, math.min(buf.n, cfg.maxPosFnsPerPosition))
        posFns(x) = fns
        while (end0(x) < fns.length && dict.posRank(fns(end0(x))) == 0) end0(x) += 1
        end1(x) = end0(x)
        while (end1(x) < fns.length && dict.posRank(fns(end1(x))) == 1) end1(x) += 1
        x += 1
      }
    }

    /** The regex-term matches of `s` for the affix labels (Definition 6),
      * longest-prefix/suffix-only (Appendix B), into `affCodes`, `preEnd`
      * and `sufStart`; none when affix labels are off.
      */
    private def affixMatches(s: String, t: String): Unit = {
      affCodes.clear(); preEnd.clear(); sufStart.clear()
      var ti = 0
      while (cfg.affix && ti < RegexTerms.length) {
        val ms = Term.matches(RegexTerms(ti), s)
        val m  = ms.length
        var k  = 1
        while (k <= m) {
          val mtext = s.substring(ms(k - 1)._1 - 1, ms(k - 1)._2 - 1)
          affCodes += dict.prefix(ti, k); affCodes += dict.prefix(ti, k - m - 1)
          affCodes += dict.suffix(ti, k); affCodes += dict.suffix(ti, k - m - 1)
          var x = 1
          while (x <= t.length + 1) {
            preEnd += x + commonPrefixLen(t, x - 1, mtext)
            sufStart += x - commonSuffixLen(t, x - 1, mtext)
            x += 1
          }
          k += 1
        }
        ti += 1
      }
    }
  }

  /** The first `cap` distinct label codes offered since `clear`, in the
    * static order `LangDict.before`, kept sorted in `a(0 until n)`.
    */
  private final class Firsts(dict: LangDict, cap: Int) {
    val a = new Array[Long](cap)
    var n = 0
    def clear(): Unit     = n = 0
    def full: Boolean     = n == cap
    def offer(c: Long): Unit =
      if (n < cap || dict.before(c, a(cap - 1))) {
        var m = if (n < cap) { n += 1; n - 1 } else cap - 1
        while (m > 0 && dict.before(c, a(m - 1))) { a(m) = a(m - 1); m -= 1 }
        a(m) = c
      }
  }

  private val RegexTerms = Term.regexTerms.toArray

  /** The position functions of each position 1..|s|+1 of `s`, uncapped:
    * every regex MatchPos, the top-ranked constant-term MatchPos and the
    * ConstPos.
    */
  private def positionIds(dict: LangDict, s: String, cfg: GraphConfig,
                          constScore: String => Double): Array[IntBuf] = {
    val acc = Array.fill(s.length + 2)(new IntBuf)

    var term = 0
    while (term < RegexTerms.length) {
      val ms = Term.matches(RegexTerms(term), s)
      val m  = ms.length
      var k  = 1
      while (k <= m) {
        val (b, e) = ms(k - 1)
        acc(b) += dict.matchPos(term, k, end = false); acc(b) += dict.matchPos(term, k - m - 1, end = false)
        acc(e) += dict.matchPos(term, k, end = true); acc(e) += dict.matchPos(term, k - m - 1, end = true)
        k += 1
      }
      term += 1
    }

    // Top-ranked constant-string term per position (begin and end
    // separately): the highest score, ties to the smaller string. Each
    // distinct substring is scored at its first occurrence.
    val bestB, bestE         = new Array[String](s.length + 2)
    val scoreB, scoreE       = new Array[Double](s.length + 2)
    val kB, kE, countB, countE = new Array[Int](s.length + 2)
    var a = 0
    while (a < s.length) {
      var b = a + 1
      while (b <= math.min(s.length, a + cfg.maxConstTermLen)) {
        val sub = s.substring(a, b)
        val score = if (s.indexOf(sub) == a) constScore(sub) else 0.0
        if (score > 0) {
          var m = 0
          var x = a
          while (x >= 0) { m += 1; x = s.indexOf(sub, x + 1) }
          var k = 1
          x = a
          while (x >= 0) {
            val y = x + 1 + sub.length
            if (bestB(x + 1) == null || score > scoreB(x + 1) || (score == scoreB(x + 1) && sub < bestB(x + 1))) {
              bestB(x + 1) = sub; scoreB(x + 1) = score; kB(x + 1) = k; countB(x + 1) = m
            }
            if (bestE(y) == null || score > scoreE(y) || (score == scoreE(y) && sub < bestE(y))) {
              bestE(y) = sub; scoreE(y) = score; kE(y) = k; countE(y) = m
            }
            k += 1
            x = s.indexOf(sub, x + 1)
          }
        }
        b += 1
      }
      a += 1
    }

    var x = 1
    while (x <= s.length + 1) {
      if (bestB(x) != null) {
        val id = dict.strId(bestB(x))
        acc(x) += dict.strMatchPos(id, kB(x), end = false); acc(x) += dict.strMatchPos(id, kB(x) - countB(x) - 1, end = false)
      }
      if (bestE(x) != null) {
        val id = dict.strId(bestE(x))
        acc(x) += dict.strMatchPos(id, kE(x), end = true); acc(x) += dict.strMatchPos(id, kE(x) - countE(x) - 1, end = true)
      }
      acc(x) += dict.constPos(x)
      if (x <= s.length) acc(x) += dict.constPos(x - s.length - 1)
      x += 1
    }
    acc
  }

  private def commonPrefixLen(t: String, at: Int, m: String): Int = {
    var l = 0
    while (at + l < t.length && l < m.length && t.charAt(at + l) == m.charAt(l)) l += 1
    l
  }

  /** Longest `len` with `t[end-len, end) == m.takeRight(len)` (0-based `end`). */
  private def commonSuffixLen(t: String, end: Int, m: String): Int = {
    var l = 0
    while (l < end && l < m.length && t.charAt(end - 1 - l) == m.charAt(m.length - 1 - l)) l += 1
    l
  }
}
