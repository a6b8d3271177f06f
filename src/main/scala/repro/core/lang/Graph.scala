package repro.core.lang

import scala.collection.mutable

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

  /** Out-edges of node `i` as (target, labels), farthest target first. */
  def outEdges(i: Int): Vector[(Int, Vector[Label])] =
    edges.iterator.collect { case ((`i`, j), ls) => (j, ls) }.toVector.sortBy(-_._1)
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
      if (overlong(s, t, cfg)) Array.empty[Array[Int]] else positionIds(dict, s, cfg, constScore)
    }
    dict.orderPositions()
    val raw = sides.lazyZip(positions).map { case ((s, t), ps) => buildRaw(dict, s, t, ps, cfg) }.toVector
    val ids  = dict.number(raw.map(_.codes))
    val graphs = raw.map { r =>
      val labs = r.codes.map(ids.get)
      // Every edge's capped labels in static (= id) order, its ConstantStr
      // last: ConstantStr has the top static rank, so the ids strictly
      // ascend along each edge. The pivot search's alias skip relies on it.
      for (e <- r.target.indices) java.util.Arrays.sort(labs, r.labOff(e), r.labOff(e + 1) - 1)
      new IntGraph(r.s, r.t, r.nodeOff, r.target, r.labOff, labs)
    }
    new GraphPool(dict, graphs)
  }

  /** An [[IntGraph]] whose labels are still `LangDict` codes. */
  private final class RawGraph(val s: String, val t: String, val nodeOff: Array[Int],
                               val target: Array[Int], val labOff: Array[Int], val codes: Array[Long])

  private def overlong(s: String, t: String, cfg: GraphConfig): Boolean =
    s.length > cfg.maxSideLen || t.length > cfg.maxSideLen

  /** The graph of `s → t` given the capped position functions of `s`. */
  private def buildRaw(dict: LangDict, s: String, t: String, positions: Array[Array[Int]],
                       cfg: GraphConfig): RawGraph = {
    val last = t.length + 1
    // degenerate graph: the one edge (1, |t|+1) labeled ConstantStr(t), none for an empty t
    if (overlong(s, t, cfg))
      return if (t.isEmpty) new RawGraph(s, t, new Array[Int](3), Array.emptyIntArray, Array(0), Array.emptyLongArray)
      else new RawGraph(s, t, Array.tabulate(last + 2)(i => if (i <= 1) 0 else 1), Array(last),
                        Array(0, 1), Array(dict.constant(t)))

    // Affix labels (Definition 6), longest-prefix/suffix-only (Appendix B),
    // per edge (i, j) at i * (last + 1) + j.
    val affix = new Array[LongBuf]((last + 1) * (last + 1))
    def affixAt(i: Int, j: Int): LongBuf = {
      val at = i * (last + 1) + j
      if (affix(at) == null) affix(at) = new LongBuf
      affix(at)
    }
    if (cfg.affix) {
      for ((term, ti) <- Term.regexTerms.zipWithIndex) {
        val ms = Term.matches(term, s)
        val m  = ms.length
        for (((b, e), k0) <- ms.zipWithIndex) {
          val k     = k0 + 1
          val mtext = s.substring(b - 1, e - 1)
          for (i <- 1 to t.length) {
            val len = commonPrefixLen(t, i - 1, mtext)
            if (len >= 1) {
              val buf = affixAt(i, i + len)
              buf += dict.prefix(ti, k)
              buf += dict.prefix(ti, k - m - 1)
            }
          }
          for (j <- 2 to last) {
            val len = commonSuffixLen(t, j - 1, mtext)
            if (len >= 1) {
              val buf = affixAt(j - len, j)
              buf += dict.suffix(ti, k)
              buf += dict.suffix(ti, k - m - 1)
            }
          }
        }
      }
    }

    // ConstantStr and SubStr labels for every substring t[i, j), node by
    // node, farthest target first.
    val nEdges  = t.length * last / 2
    val nodeOff = new Array[Int](last + 2)
    val target  = new Array[Int](nEdges)
    val labOff  = new Array[Int](nEdges + 1)
    val codes   = new LongBuf
    val cand    = new LongBuf
    var e = 0
    for (i <- 1 to t.length) {
      nodeOff(i) = e
      for (j <- last until i by -1) {
        val sub = t.substring(i - 1, j - 1)
        cand.clear()
        var x = s.indexOf(sub)
        while (x >= 0) {
          val ls = positions(x + 1)
          val rs = positions(x + 1 + sub.length)
          for (f <- ls; g <- rs) cand += dict.subStr(f, g)
          x = s.indexOf(sub, x + 1)
        }
        val aff = affix(i * (last + 1) + j)
        if (aff != null) for (k <- 0 until aff.n) cand += aff(k)
        // Definition 4 guarantees exactly one ConstantStr per edge; it is the
        // fallback that keeps every graph connected, so it is exempt from the cap.
        val kept = selectFirst(cand.a, cand.n, cfg.maxLabelsPerEdge - 1, dict.rankOf, dict.before)
        for (k <- 0 until kept) codes += cand(k)
        codes += dict.constant(sub)
        target(e) = j
        e += 1
        labOff(e) = codes.n
      }
    }
    nodeOff(last) = e
    nodeOff(last + 1) = e
    new RawGraph(s, t, nodeOff, target, labOff, java.util.Arrays.copyOf(codes.a, codes.n))
  }

  /** Ids of the capped position functions of each position 1..|s|+1, in
    * no particular order.
    */
  private def positionIds(dict: LangDict, s: String, cfg: GraphConfig,
                          constScore: String => Double): Array[Array[Int]] = {
    val acc = Array.fill(s.length + 2)(new LongBuf)

    for ((t, term) <- Term.regexTerms.zipWithIndex) {
      val ms = Term.matches(t, s)
      val m  = ms.length
      for (((b, e), k0) <- ms.zipWithIndex) {
        val k = k0 + 1
        acc(b) += dict.matchPos(term, k, end = false); acc(b) += dict.matchPos(term, k - m - 1, end = false)
        acc(e) += dict.matchPos(term, k, end = true); acc(e) += dict.matchPos(term, k - m - 1, end = true)
      }
    }

    // Top-ranked constant-string term per position (begin and end separately).
    val bestB = mutable.HashMap.empty[Int, (String, Int, Int, Double)] // pos -> (str, k, m, score)
    val bestE = mutable.HashMap.empty[Int, (String, Int, Int, Double)]
    val seen  = mutable.HashSet.empty[String]
    for (a <- 0 until s.length; b <- (a + 1) to math.min(s.length, a + cfg.maxConstTermLen)) {
      val sub = s.substring(a, b)
      if (seen.add(sub)) {
        val score = constScore(sub)
        if (score > 0) {
          val ms = Term.matches(TStr(sub), s)
          val m  = ms.length
          for (((x, y), k0) <- ms.zipWithIndex) {
            val k = k0 + 1
            def better(cur: Option[(String, Int, Int, Double)]): Boolean =
              cur.forall { case (cs, _, _, cscore) => score > cscore || (score == cscore && sub < cs) }
            if (better(bestB.get(x))) bestB(x) = (sub, k, m, score)
            if (better(bestE.get(y))) bestE(y) = (sub, k, m, score)
          }
        }
      }
    }
    for ((x, (str, k, m, _)) <- bestB) {
      val id = dict.strId(str)
      acc(x) += dict.strMatchPos(id, k, end = false); acc(x) += dict.strMatchPos(id, k - m - 1, end = false)
    }
    for ((y, (str, k, m, _)) <- bestE) {
      val id = dict.strId(str)
      acc(y) += dict.strMatchPos(id, k, end = true); acc(y) += dict.strMatchPos(id, k - m - 1, end = true)
    }

    for (x <- 1 to (s.length + 1)) {
      acc(x) += dict.constPos(x)
      if (x <= s.length) acc(x) += dict.constPos(x - s.length - 1)
    }

    acc.map { buf =>
      val kept = selectFirst(buf.a, buf.n, cfg.maxPosFnsPerPosition,
        id => dict.posRank(id.toInt), (p, q) => dict.posBefore(p.toInt, q.toInt))
      Array.tabulate(kept)(k => buf(k).toInt)
    }
  }

  /** Moves the first `limit` of the distinct items `c(0 until n)` in the
    * order `before` to the front of `c`, in no particular order, and returns
    * how many that is. `before` orders by `rank` (in 0..4) first; items of a
    * rank that lies wholly inside or outside the first `limit` are never
    * compared with `before`, which keeps string keys off the hot path.
    */
  private def selectFirst(c: Array[Long], n: Int, limit: Int,
                          rank: Long => Int, before: (Long, Long) => Boolean): Int = {
    if (n <= limit) return n
    def swap(x: Int, y: Int): Unit = { val v = c(x); c(x) = c(y); c(y) = v }
    val count = new Array[Int](5)
    for (k <- 0 until n) count(rank(c(k))) += 1
    var cut   = 0 // the rank at which the first `limit` items end
    var below = 0
    while (below + count(cut) < limit) { below += count(cut); cut += 1 }
    var a = 0
    for (k <- 0 until n) if (rank(c(k)) < cut) { swap(a, k); a += 1 }
    var b = a
    for (k <- a until n) if (rank(c(k)) == cut) { swap(b, k); b += 1 }
    // selection of the `limit - a` first items of rank `cut`
    while (a < limit) {
      var m = a
      for (k <- a + 1 until b) if (before(c(k), c(m))) m = k
      swap(a, m)
      a += 1
    }
    limit
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
