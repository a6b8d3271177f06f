package repro.core.lang

import repro.core.Trans
import scala.collection.mutable

/** Configuration of the pivot-path search (Sections 4.2–4.4).
  * θ = `maxPathLen` is the maximum number of string functions in a path;
  * the threshold flags correspond to the paper's LocalThrsh / GlobalThrsh /
  * AllThrsh / NoThrsh pruning variants (Section 7.3).
  */
final case class PivotConfig(
    maxPathLen: Int = 4,
    localThreshold: Boolean = true,
    globalThreshold: Boolean = true,
    graph: GraphConfig = GraphConfig(),
    /** Hard cap on (edge, label) expansions per graph search — the same
      * "control its runtime in a reasonable manner" role as θ (Section 4.3),
      * needed because our substrate is JVM-based, not the paper's C++.
      * The best path found within the budget is kept. 0 disables the cap.
      */
    searchBudget: Long = 2500,
) extends Serializable {
  require(maxPathLen >= 1, s"maxPathLen must be >= 1, got $maxPathLen")
  require(searchBudget >= 0, s"searchBudget must be >= 0, got $searchBudget")
}

/** A program group: transformations sharing the same pivot path. */
final case class ProgGroup(pathKey: String, path: Vector[Label], members: Vector[Trans])

/** Grouping-by-programs (Section 4): for each transformation pick the pivot
  * path — the transformation path of its graph contained by the most graphs
  * in the pool Σ — then group transformations with equal pivot paths.
  *
  * Implementation notes (DESIGN.md §6): a pool's graphs are built over one
  * [[LangDict]], so labels are int ids in the static order and graphs are
  * CSR arrays ([[IntGraph]]). Node ids are ≤ maxSideLen + 1 = 31, so the set
  * of reachable nodes per graph is a Long bitmask. The inverted index stores,
  * per label id and graph, the packed edges `(i << 8) | j` (Section 4.2's
  * ⟨G, i, j⟩ triples) in flat arrays. `Label` objects and path keys are made
  * only for the returned groups. The local/global thresholds are Section 4.3
  * verbatim.
  */
object Pivot {

  /** Appendix B: with a very large pool Σ, score candidate paths against a
    * random sample of at most `SampleCap` graphs of Σ instead of all of it.
    */
  final val SampleCap = 96

  /** Seed of the Appendix-B sample of a pool. */
  private final val SampleSeed = 97L

  /** Counts of constant-string-term candidates over the lhs strings of a set
    * of transformations: +1 per transformation whose lhs contains the
    * substring (length ≤ maxLen). Used for the Appendix-B ranking score.
    */
  def constTermFreq(lhs: Iterable[String], maxLen: Int): Map[String, Int] = {
    // per substring: the count, and the index of the last lhs counted
    final class Count(var n: Int, var lastLhs: Int)
    val acc = mutable.HashMap.empty[String, Count]
    var i = 0
    for (s <- lhs) {
      var a = 0
      while (a < s.length) {
        var b = a + 1
        while (b <= math.min(s.length, a + maxLen)) {
          val c = acc.getOrElseUpdate(s.substring(a, b), new Count(0, -1))
          if (c.lastLhs != i) { c.n += 1; c.lastLhs = i }
          b += 1
        }
        a += 1
      }
      i += 1
    }
    acc.iterator.map { case (sub, c) => sub -> c.n }.toMap
  }

  /** Appendix-B score for constant terms: freq-in-group / sqrt(freq-global). */
  def constScoreFn(groupFreq: Map[String, Int], globalFreq: Map[String, Int]): String => Double = {
    sub =>
      val g = groupFreq.getOrElse(sub, 0)
      if (g < 2) 0.0 // a term appearing in a single transformation cannot anchor a group
      else g / math.sqrt(math.max(1, globalFreq.getOrElse(sub, g)).toDouble)
  }

  /** Group a pool Σ of transformations by pivot paths. Deterministic in the
    * input (the pool is sorted internally).
    */
  def groupByPrograms(pool: Seq[Trans], cfg: PivotConfig,
                      globalConstFreq: Map[String, Int]): Vector[ProgGroup] = {
    val sorted = pool.distinct.sorted(Trans.ByText).toVector
    val (searchable, fixed) = sorted.partition(searches(_, sorted.size, cfg.graph))
    val pivots = searchPivots(searchable, cfg, globalConstFreq) ++ fixed.map { tr =>
      val path = if (tr.rhs.isEmpty) Vector.empty[Label] else Vector[Label](ConstantStr(tr.rhs))
      (PathCheck.pathKey(path), path)
    }
    (searchable ++ fixed).zip(pivots)
      .groupBy { case (_, (key, _)) => key }
      .iterator
      .map { case (key, ms) => ProgGroup(key, ms.head._2._2, ms.map(_._1)) }
      .toVector
      .sortBy(_.pathKey)
  }

  /** Whether `groupByPrograms` searches `tr`, one of the `distinct`
    * distinct transformations of a pool. A singleton pool can never merge,
    * and an overlong transformation's graph carries no label but the whole
    * rhs (node ids past 63 would also overflow the search's bitmask): both
    * get the program that outputs the rhs as one constant, or the empty
    * program for an empty rhs.
    */
  private[core] def searches(tr: Trans, distinct: Int, cfg: GraphConfig): Boolean =
    distinct >= 2 && tr.lhs.length <= cfg.maxSideLen && tr.rhs.length <= cfg.maxSideLen

  /** The pivot path of each transformation of `searchable`, with its key. */
  private def searchPivots(searchable: Vector[Trans], cfg: PivotConfig,
                           globalConstFreq: Map[String, Int]): Vector[(String, Vector[Label])] = {
    if (searchable.isEmpty) return Vector.empty
    val groupFreq = constTermFreq(searchable.map(_.lhs), cfg.graph.maxConstTermLen)
    val built     = GraphBuilder.buildPool(searchable.map(tr => (tr.lhs, tr.rhs)), cfg.graph,
                                           constScoreFn(groupFreq, globalConstFreq))
    val index     = new LabelIndex(built.graphs, built.dict.numLabels)

    val state    = new SearchState(built.graphs)
    val searcher = new Searcher(state, built.graphs, index, index.representatives(), cfg)
    for (g <- built.graphs.indices) searcher.searchGraph(g)

    // Labels and path keys of the distinct pivot paths only.
    val paths = mutable.HashMap.empty[Seq[Int], (String, Vector[Label])]
    built.graphs.indices.toVector.map { g =>
      paths.getOrElseUpdate(state.bestPath(g).toSeq, {
        val path = state.bestPath(g).iterator.map(built.dict.label).toVector
        (PathCheck.pathKey(path), path)
      })
    }
  }

  /** Inverted index I (Section 4.2) over a pool's graphs, in flat arrays.
    * Label `f`'s postings are `postOff(f) until postOff(f + 1)`, by ascending
    * graph id; posting `p` names graph `postGid(p)` and the label's packed
    * edges `(i << 8) | j` there, `edges(edgeOff(p) until edgeOff(p + 1))`,
    * ascending.
    */
  private[lang] final class LabelIndex(graphs: Vector[IntGraph], numLabels: Int) {
    val postOff = new Array[Int](numLabels + 1)
    // per label: a hash of its postings; its number of postings and of
    // edges, then its next free slot in each
    private val hash     = new Array[Int](numLabels)
    private val postNext = new Array[Int](numLabels)
    private val edgeNext = new Array[Int](numLabels)
    scan(fill = false)
    private val numEdges = {
      var e = 0
      for (f <- 0 until numLabels) {
        postOff(f + 1) = postOff(f) + postNext(f); postNext(f) = postOff(f)
        e += edgeNext(f); edgeNext(f) = e - edgeNext(f)
      }
      e
    }
    val postGid = new Array[Int](postOff(numLabels))
    val edgeOff = new Array[Int](postGid.length + 1)
    val edges   = new Array[Int](numEdges)
    scan(fill = true)
    edgeOff(postGid.length) = numEdges

    /** Visits every (label, graph, edge) in graph and edge order, advancing the
      * label's cursors; with `fill`, writes its postings, edges and hash. A
      * posting starts wherever the label's last-seen graph id changes.
      */
    private def scan(fill: Boolean): Unit = {
      val lastGid = Array.fill(numLabels)(-1)
      var gid = 0
      while (gid < graphs.length) {
        val g = graphs(gid)
        var i = 1
        while (i < g.lastNode) {
          // out-edges are farthest target first: walk them backwards
          var e = g.nodeOff(i + 1) - 1
          while (e >= g.nodeOff(i)) {
            val packed = (i << 8) | g.target(e)
            var k = g.labOff(e)
            while (k < g.labOff(e + 1)) {
              val f = g.labs(k)
              if (lastGid(f) != gid) {
                lastGid(f) = gid
                if (fill) {
                  postGid(postNext(f)) = gid; edgeOff(postNext(f)) = edgeNext(f)
                  hash(f) = 31 * hash(f) + ~gid
                }
                postNext(f) += 1
              }
              if (fill) { edges(edgeNext(f)) = packed; hash(f) = 31 * hash(f) + packed }
              edgeNext(f) += 1
              k += 1
            }
            e -= 1
          }
          i += 1
        }
        gid += 1
      }
    }

    /** `rep(f)`: the smallest label id whose postings equal `f`'s. Labels are
      * chained in hash buckets of their postings and confirmed equal element
      * by element.
      */
    def representatives(): Array[Int] = {
      val rep    = new Array[Int](numLabels)
      val chain  = new Array[Int](numLabels) // the next representative in the bucket, or -1
      val mask   = Integer.highestOneBit(math.max(1, 2 * numLabels)) - 1
      val bucket = Array.fill(mask + 1)(-1)
      var f = 0
      while (f < numLabels) {
        val h = hash(f)
        var r = bucket(h & mask)
        while (r >= 0 && !(hash(r) == h && samePostings(r, f))) r = chain(r)
        if (r >= 0) rep(f) = r
        else {
          rep(f) = f
          chain(f) = bucket(h & mask); bucket(h & mask) = f
        }
        f += 1
      }
      rep
    }

    private def samePostings(a: Int, b: Int): Boolean = {
      val a0 = postOff(a); val a1 = postOff(a + 1); val b0 = postOff(b); val b1 = postOff(b + 1)
      if (!java.util.Arrays.equals(postGid, a0, a1, postGid, b0, b1) ||
          !java.util.Arrays.equals(edges, edgeOff(a0), edgeOff(a1), edges, edgeOff(b0), edgeOff(b1))) return false
      var p = 0
      while (p < a1 - a0) {
        if (edgeOff(a0 + p + 1) - edgeOff(a0 + p) != edgeOff(b0 + p + 1) - edgeOff(b0 + p)) return false
        p += 1
      }
      true
    }
  }

  /** Shared global-threshold state (Section 4.3) plus the Appendix-B sample
    * of graph ids that candidate paths are scored against. Paths are label
    * ids of the pool's dictionary.
    */
  private final class SearchState(graphs: Vector[IntGraph]) {
    val n: Int                      = graphs.length
    val lastNode: Array[Int]        = graphs.map(_.lastNode).toArray
    val bestScore: Array[Int]       = Array.fill(n)(0)
    val bestPath: Array[Array[Int]] = Array.tabulate(n) { i =>
      // fallback pivot: the single ConstantStr(t) edge (or the empty program)
      if (graphs(i).t.isEmpty) Array.emptyIntArray else Array(graphs(i).wholeConst)
    }
    val sample: Array[Int] =
      if (n <= SampleCap) Array.range(0, n)
      else new scala.util.Random(SampleSeed).shuffle((0 until n).toVector)
        .take(SampleCap).sorted.toArray
    val maxScore: Int = math.min(n, sample.length + 1) // sample plus the searched graph
  }

  /** FindingPivotPath (Algorithms 2–3) over a pool, sharing the global
    * threshold state across graphs. Flat arrays + merge-join intersections:
    * the hot recursion must stay JIT-friendly (DESIGN.md §6).
    *
    * Labels with identical postings are interchangeable during the search
    * (same ℓ trajectory, same scores); exploring every alias only multiplies
    * the branching factor. The search skips every label `f` with
    * `rep(f) != f`. An alias shares every edge with its representative, the
    * smaller id, and an edge's labels ascend by id, so the representative is
    * met first and the search order equals that over graphs with the aliases
    * removed.
    */
  private final class Searcher(
      state: SearchState,
      graphs: Vector[IntGraph],
      index: LabelIndex,
      rep: Array[Int],
      cfg: PivotConfig) {

    private val maxDepth = cfg.maxPathLen
    private val n        = state.n

    // per-depth ℓ buffers: parallel (gid, reachable-node bitmask) arrays
    private val bufGids  = Array.ofDim[Int](maxDepth + 1, n)
    private val bufMasks = Array.ofDim[Long](maxDepth + 1, n)
    java.util.Arrays.fill(bufMasks(0), 2L)
    private val ellSize  = new Array[Int](maxDepth + 1)
    private val pathBuf  = new Array[Int](maxDepth)

    private var gLastNode = 0
    private var nodeOff: Array[Int] = _
    private var target: Array[Int]  = _
    private var labOff: Array[Int]  = _
    private var labs: Array[Int]    = _
    private var localBest  = 0
    private var localPath: Array[Int] = null
    private var ops    = 0L
    private val budget = if (cfg.searchBudget == 0) Long.MaxValue else cfg.searchBudget

    def searchGraph(gid: Int): Unit = {
      val g = graphs(gid)
      if (g.t.isEmpty) return
      // The fallback path always covers this graph itself.
      if (state.bestScore(gid) < 1) state.bestScore(gid) = 1
      // Global threshold shortcut: an earlier search already found a path for
      // this graph shared by the whole (sampled) pool — nothing can beat it.
      if (cfg.globalThreshold && state.bestScore(gid) >= state.maxScore) return

      gLastNode = g.lastNode
      nodeOff = g.nodeOff; target = g.target; labOff = g.labOff; labs = g.labs
      localBest = if (cfg.globalThreshold) state.bestScore(gid) else 1
      localPath = null
      ops = 0L

      // ℓ₀ = the Appendix-B sample plus this graph itself, node 1 reachable
      // (the masks of ℓ₀ are all 2L, set once)
      val sample = state.sample
      val at     = java.util.Arrays.binarySearch(sample, gid)
      val ins    = if (at >= 0) at else -at - 1
      val rest   = if (at >= 0) ins + 1 else ins
      System.arraycopy(sample, 0, bufGids(0), 0, ins)
      bufGids(0)(ins) = gid
      System.arraycopy(sample, rest, bufGids(0), ins + 1, sample.length - rest)
      ellSize(0) = ins + 1 + sample.length - rest

      search(0, 1)

      if (localPath != null && localBest > state.bestScore(gid)) {
        state.bestScore(gid) = localBest
        state.bestPath(gid) = localPath
      }
    }

    // SearchPivot (Algorithm 3) with local/global thresholds, max θ and the
    // expansion budget.
    private def search(depth: Int, node: Int): Unit = {
      var e = nodeOff(node)
      while (e < nodeOff(node + 1)) {
        val j  = target(e)
        var li = labOff(e)
        while (li < labOff(e + 1)) {
          val f = labs(li)
          if (rep(f) == f) {
            ops += 1
            if (ops <= budget) {
              val sz = intersect(depth, f)
              if (sz > 0) {
                pathBuf(depth) = f
                if (j == gLastNode) {
                  complete(depth)
                } else if (depth + 1 < maxDepth &&
                           (!cfg.localThreshold || sz > localBest)) {
                  // |ℓ'| bounds any completion below here (local threshold)
                  search(depth + 1, j)
                }
              }
            }
          }
          li += 1
        }
        e += 1
      }
    }

    /** A transformation path of length depth+1 is complete in pathBuf. */
    private def complete(depth: Int): Unit = {
      val gids  = bufGids(depth + 1)
      val masks = bufMasks(depth + 1)
      val m     = ellSize(depth + 1)
      var score = 0
      var k = 0
      while (k < m) {
        if (((masks(k) >>> state.lastNode(gids(k))) & 1L) != 0L) score += 1
        k += 1
      }
      if (score > localBest || localPath == null) {
        localBest = score
        localPath = java.util.Arrays.copyOf(pathBuf, depth + 1)
      }
      if (cfg.globalThreshold && score > 1) {
        var p: Array[Int] = null
        k = 0
        while (k < m) {
          val gi = gids(k)
          if (((masks(k) >>> state.lastNode(gi)) & 1L) != 0L && score > state.bestScore(gi)) {
            if (p == null) p = java.util.Arrays.copyOf(pathBuf, depth + 1)
            state.bestScore(gi) = score
            state.bestPath(gi) = p
          }
          k += 1
        }
      }
    }

    /** ℓ at `depth` ∩ I[f] → ℓ at depth+1 (adjacency-aware, Section 4.2). */
    private def intersect(depth: Int, f: Int): Int = {
      val p0   = index.postOff(f)
      val p1   = index.postOff(f + 1)
      val pGid = index.postGid
      val inG  = bufGids(depth)
      val inM  = bufMasks(depth)
      val m    = ellSize(depth)
      outSize = 0
      if (p1 - p0 > 8 * m) {
        // postings much larger than ℓ (TransAgg pools): binary-search
        // each live graph instead of walking the whole postings array
        var a = 0
        while (a < m) {
          val ga = inG(a)
          val b  = java.util.Arrays.binarySearch(pGid, p0, p1, ga)
          if (b >= 0) emit(depth, ga, inM(a), b)
          a += 1
        }
      } else {
        var a = 0; var b = p0
        while (a < m && b < p1) {
          val ga = inG(a); val gb = pGid(b)
          if (ga < gb) a += 1
          else if (ga > gb) b += 1
          else { emit(depth, ga, inM(a), b); a += 1; b += 1 }
        }
      }
      ellSize(depth + 1) = outSize
      outSize
    }

    /** Entries of ℓ at depth+1 written so far by `emit`. */
    private var outSize = 0

    /** Appends graph `ga` to ℓ at depth+1 with the nodes that posting `p`'s
      * edges reach from the nodes in `mask`, if any.
      */
    private def emit(depth: Int, ga: Int, mask: Long, p: Int): Unit = {
      var acc = 0L
      var k   = index.edgeOff(p)
      val end = index.edgeOff(p + 1)
      while (k < end) {
        val e2 = index.edges(k)
        if (((mask >>> (e2 >>> 8)) & 1L) != 0L) acc |= 1L << (e2 & 0xff)
        k += 1
      }
      if (acc != 0L) {
        bufGids(depth + 1)(outSize) = ga; bufMasks(depth + 1)(outSize) = acc; outSize += 1
      }
    }
  }
}
