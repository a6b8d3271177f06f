package repro.core.lang

import repro.core.Structure
import scala.collection.mutable

/** Terms of the programming language (Sections 3 and 4.1): the four
  * regex-based terms plus constant-string terms (used only inside MatchPos).
  */
sealed trait Term extends Serializable { def key: String }
case object Td extends Term { val key = "Td" } // [0-9]+
case object Tl extends Term { val key = "Tl" } // [a-z]+
case object Tc extends Term { val key = "TC" } // [A-Z]+
case object Tb extends Term { val key = "Tb" } // \s+
final case class TStr(s: String) extends Term { lazy val key = "T(" + s + ")" }

object Term {
  val regexTerms: List[Term] = List(Td, Tl, Tc, Tb)

  private def regexCat(t: Term): Char = t match {
    case Td => 'd'; case Tl => 'l'; case Tc => 'C'; case Tb => 'b'
    case _  => throw new IllegalArgumentException("not a regex term")
  }

  /** All matches of `t` in `s` as 1-based half-open `[begin, end)` spans.
    * Regex terms match maximal runs; constant terms match every (possibly
    * overlapping) occurrence, left to right.
    */
  def matches(t: Term, s: String): Vector[(Int, Int)] = t match {
    case TStr(sub) =>
      if (sub.isEmpty) Vector.empty
      else {
        val out = Vector.newBuilder[(Int, Int)]
        var i = s.indexOf(sub)
        while (i >= 0) { out += ((i + 1, i + 1 + sub.length)); i = s.indexOf(sub, i + 1) }
        out.result()
      }
    case _ =>
      val cat = regexCat(t)
      val out = Vector.newBuilder[(Int, Int)]
      var i = 0
      while (i < s.length) {
        if (Structure.category(s.charAt(i)) == cat) {
          val start = i
          while (i < s.length && Structure.category(s.charAt(i)) == cat) i += 1
          out += ((start + 1, i + 1))
        } else i += 1
      }
      out.result()
  }

  /** The `[begin, end)` span of the k-th match of `t` in `s`, if any; `k < 0`
    * counts matches from the back (`m + 1 + k`).
    */
  def kth(t: Term, k: Int, s: String): Option[(Int, Int)] = {
    val ms  = matches(t, s)
    val idx = if (k > 0) k else ms.length + 1 + k
    if (k == 0 || idx < 1 || idx > ms.length) None else Some(ms(idx - 1))
  }
}

/** Position functions (Section 4.1). Both return a 1-based position in the
  * input string `s`, in `[1, |s|+1]`, or None when out of range.
  */
sealed trait Pos extends Serializable { def key: String }

/** `k > 0`: forward position `k`; `k < 0`: backward, `|s| + 1 + k`.
  * We additionally allow the forward position `|s| + 1` (see DESIGN.md §6).
  */
final case class ConstPos(k: Int) extends Pos { lazy val key = s"CP($k)" }

/** Beginning (`dir = 'B'`) or ending (`dir = 'E'`) position of the k-th match
  * of `t` in `s`; `k < 0` counts matches from the back (`m + 1 + k`).
  */
final case class MatchPos(t: Term, k: Int, dir: Char) extends Pos {
  lazy val key = s"MP(${t.key},$k,$dir)"
}

object Pos {
  def eval(p: Pos, s: String): Option[Int] = p match {
    case ConstPos(k) =>
      if (k > 0 && k <= s.length + 1) Some(k)
      else if (k < 0 && s.length + 1 + k >= 1) Some(s.length + 1 + k)
      else None
    case MatchPos(t, k, dir) =>
      Term.kth(t, k, s).map { case (b, e) => if (dir == 'B') b else e }
  }

  /** Static-order rank of position functions (Appendix B): regex MatchPos,
    * then constant-term MatchPos, then ConstPos.
    */
  def rank(p: Pos): Int = p match {
    case MatchPos(_: TStr, _, _) => 1
    case MatchPos(_, _, _)       => 0
    case ConstPos(_)             => 2
  }
}

/** String functions used as edge labels in the transformation graph
  * (Definitions 4 and 6). `ConstantStr` and `SubStrF` are deterministic;
  * the affix labels `PrefixF`/`SuffixF` are multi-output (Section 4.4).
  */
sealed trait Label extends Serializable { def key: String }

final case class ConstantStr(x: String) extends Label { def key = s"CS($x)" }

final case class SubStrF(l: Pos, r: Pos) extends Label {
  def key = s"SS(${l.key},${r.key})"
}

/** Output: any non-empty prefix of the k-th match of regex term `t` in `s`. */
final case class PrefixF(t: Term, k: Int) extends Label { def key = s"PRE(${t.key},$k)" }

/** Output: any non-empty suffix of the k-th match of regex term `t` in `s`. */
final case class SuffixF(t: Term, k: Int) extends Label { def key = s"SUF(${t.key},$k)" }

object Label {

  /** The text of the k-th (possibly backward-indexed) match of `t` in `s`. */
  private def kthMatch(t: Term, k: Int, s: String): Option[String] =
    Term.kth(t, k, s).map { case (b, e) => s.substring(b - 1, e - 1) }

  /** The single output of a deterministic label, if defined. */
  def evalDeterministic(label: Label, s: String): Option[String] = label match {
    case ConstantStr(x) => Some(x)
    case SubStrF(l, r) =>
      for {
        a <- Pos.eval(l, s)
        b <- Pos.eval(r, s)
        if a < b
      } yield s.substring(a - 1, b - 1)
    case _ => None
  }

  /** All lengths `len` such that `label` on `s` can output `t[at, at+len)`
    * (0-based `at`). Used to check path consistency without building graphs.
    */
  def matchLengthsAt(label: Label, s: String, t: String, at: Int): List[Int] = label match {
    case ConstantStr(x) =>
      if (t.regionMatches(at, x, 0, x.length)) List(x.length) else Nil
    case f: SubStrF =>
      evalDeterministic(f, s) match {
        case Some(o) if t.regionMatches(at, o, 0, o.length) => List(o.length)
        case _ => Nil
      }
    case PrefixF(tm, k) =>
      kthMatch(tm, k, s) match {
        case Some(m) =>
          val max = math.min(m.length, t.length - at)
          (1 to max).filter(len => t.regionMatches(at, m, 0, len)).toList
        case None => Nil
      }
    case SuffixF(tm, k) =>
      kthMatch(tm, k, s) match {
        case Some(m) =>
          val max = math.min(m.length, t.length - at)
          (1 to max).filter(len => t.regionMatches(at, m, m.length - len, len)).toList
        case None => Nil
      }
  }

  /** Static-order rank for label preference (Appendix B): regex-positioned
    * SubStr first, then affix labels, then constant-term-positioned SubStr,
    * then ConstPos-based SubStr, then ConstantStr.
    */
  def staticRank(label: Label): Int = label match {
    case SubStrF(l, r)           => subStrRank(Pos.rank(l), Pos.rank(r))
    case _: PrefixF | _: SuffixF => 1
    case _: ConstantStr          => 4
  }

  /** `staticRank` of a SubStr label from the `Pos.rank`s of its positions. */
  def subStrRank(lRank: Int, rRank: Int): Int = math.max(lRank, rRank) match {
    case 0 => 0 // both regex MatchPos
    case 1 => 2 // involves a constant-string term
    case _ => 3 // involves ConstPos
  }
}

/** The program language of one pool of transformation graphs, interned
  * (DESIGN.md §6): each distinct string, position function and label gets
  * an integer id, with its key and static rank computed once.
  *
  * While graphs are built a label is a packed `Long` code whose top bits
  * hold its static rank, and `before` compares codes in the Appendix-B
  * static order `(staticRank, key)` without building keys. Within a rank,
  * SubStr and affix codes order as their keys: a SubStr code holds the key
  * ranks of its two positions (`orderPositions`), an affix code the rank of
  * its key among all affix labels (`LangDict.affixLabels`). A `ConstantStr`
  * code holds a string id; `number` ranks the strings by key once. `number`
  * then gives the labels that survived the per-edge caps dense ids in
  * static order, so it is int order everywhere downstream.
  */
final class LangDict {
  import LangDict._

  private val strIds = mutable.HashMap.empty[String, Int]
  private val strs   = mutable.ArrayBuffer.empty[String]

  def strId(x: String): Int = strIds.getOrElseUpdate(x, { strs += x; strs.length - 1 })

  private val posIds   = new LongIntMap
  private val posObjs  = mutable.ArrayBuffer.empty[Pos]
  private val posRanks = new IntBuf

  /** `MatchPos` of `Term.regexTerms(term)`; `end` selects `'E'` over `'B'`. */
  def matchPos(term: Int, k: Int, end: Boolean): Int = internPos(0, term, k, end)
  /** `MatchPos` of the constant-string term `TStr` with string id `str`. */
  def strMatchPos(str: Int, k: Int, end: Boolean): Int = internPos(1, str, k, end)
  def constPos(k: Int): Int = internPos(2, 0, k, end = false)

  def pos(id: Int): Pos     = posObjs(id)
  def posRank(id: Int): Int = posRanks(id)

  /** Static order of position ids: `(Pos.rank, key)`. Valid after
    * `orderPositions`.
    */
  def posBefore(p: Int, q: Int): Boolean =
    if (posRanks(p) != posRanks(q)) posRanks(p) < posRanks(q) else posOrder(p) < posOrder(q)

  private var posOrder: Array[Int] = Array.emptyIntArray // id -> rank of its key
  private var byKey: Array[Int]    = Array.emptyIntArray // rank of a key -> id
  private var posKeysPrefixFree    = false

  /** Rank the position keys; call after the last position is interned and
    * before positions are compared or SubStr labels made.
    */
  def orderPositions(): Unit = {
    byKey = Array.range(0, posObjs.length).sortBy(posObjs(_).key)
    posOrder = new Array[Int](byKey.length)
    for (k <- byKey.indices) posOrder(byKey(k)) = k
    // a key that prefixes another also prefixes its successor in key order
    posKeysPrefixFree = (1 until byKey.length).forall(k => !posObjs(byKey(k)).key.startsWith(posObjs(byKey(k - 1)).key))
  }

  private def internPos(kind: Int, a: Int, k: Int, end: Boolean): Int = {
    val code  = (kind.toLong << 62) | (a.toLong << 24) | ((k + (1 << 22)).toLong << 1) | (if (end) 1L else 0L)
    val known = posIds.get(code)
    if (known >= 0) known
    else {
      val dir = if (end) 'E' else 'B'
      val p = kind match {
        case 0 => MatchPos(RegexTerms(a), k, dir)
        case 1 => MatchPos(TStr(strs(a)), k, dir)
        case _ => ConstPos(k)
      }
      posObjs += p
      posRanks += Pos.rank(p)
      posIds.put(code, posObjs.length - 1)
      posObjs.length - 1
    }
  }

  // Label codes: the static rank in bits 60-62; then the key ranks of the
  // two positions, the affix key rank, or a string id.
  def subStr(l: Int, r: Int): Long =
    (Label.subStrRank(posRanks(l), posRanks(r)).toLong << 60) | (posOrder(l).toLong << 30) | posOrder(r)
  def prefix(term: Int, k: Int): Long = affix(0, term, k)
  def suffix(term: Int, k: Int): Long = affix(1, term, k)
  def constant(x: String): Long       = (4L << 60) | strId(x)

  def rankOf(code: Long): Int = (code >>> 60).toInt

  private def labelOf(code: Long): Label = rankOf(code) match {
    case 1 => affixLabels(code.toInt)
    case 4 => ConstantStr(strs(code.toInt))
    case _ => SubStrF(pos(byKey((code >>> 30).toInt & Mask30)), pos(byKey(code.toInt & Mask30)))
  }

  /** Static order of label codes: `(staticRank, key)`, then the code.
    * `ConstantStr` codes compare only inside `number`.
    */
  def before(a: Long, b: Long): Boolean = {
    val ra = rankOf(a); val rb = rankOf(b)
    if (ra != rb) ra < rb
    else if (ra == 4) strOrder(a.toInt) < strOrder(b.toInt)
    else if (ra == 1 || posKeysPrefixFree) a < b
    else {
      // `SS(l,r)` keys order as `(key(l), key(r))` only when no position key
      // is a prefix of another
      val c = labelOf(a).key.compareTo(labelOf(b).key)
      c < 0 || (c == 0 && a < b)
    }
  }

  private var strOrder: Array[Int]  = Array.emptyIntArray // string id -> rank of its key CS(x)
  private var strByKey: Array[Int]  = Array.emptyIntArray // rank of a key CS(x) -> string id
  private var codes: Array[Long]    = Array.emptyLongArray
  private var labels: Array[Label]  = Array.empty

  /** Number the distinct label codes in `used` in static order; returns the
    * code -> id map. Called once, after the pool's graphs are built.
    */
  def number(used: Seq[Array[Long]]): LongIntMap = {
    val ids = new LongIntMap(used.iterator.map(_.length).sum / 2)
    for (cs <- used) {
      var k = 0
      while (k < cs.length) { ids.putIfAbsent(cs(k), 0); k += 1 }
    }
    val strsByKey = strs.toArray
    java.util.Arrays.sort(strsByKey, ConstKeyOrder)
    strOrder = new Array[Int](strsByKey.length)
    strByKey = new Array[Int](strsByKey.length)
    for (k <- strsByKey.indices) { strByKey(k) = strIds(strsByKey(k)); strOrder(strByKey(k)) = k }
    codes = ids.keys
    if (posKeysPrefixFree) {
      // the static order is the numeric order of the codes, once each
      // ConstantStr code holds its key's rank instead of its string id
      for (k <- codes.indices) if (rankOf(codes(k)) == 4) codes(k) = (4L << 60) | strOrder(codes(k).toInt)
      java.util.Arrays.sort(codes)
      for (k <- codes.indices) if (rankOf(codes(k)) == 4) codes(k) = (4L << 60) | strByKey(codes(k).toInt)
    } else codes = codes.sortWith(before)
    for (id <- codes.indices) ids.put(codes(id), id)
    labels = new Array[Label](codes.length)
    ids
  }

  def numLabels: Int = codes.length

  /** The label numbered `id`, created on first use. */
  def label(id: Int): Label = {
    if (labels(id) == null) labels(id) = labelOf(codes(id))
    labels(id)
  }
}

object LangDict {
  private final val Mask30 = (1 << 30) - 1
  private val RegexTerms   = Term.regexTerms.toArray

  /** The largest `|k|` of an affix label. A side of at most `maxSideLen`
    * characters has at most that many matches of a term, and the pivot
    * search's reachability bitmask caps `maxSideLen` at 62.
    */
  final val MaxAffixK = 62
  require(GraphConfig().maxSideLen <= MaxAffixK)

  private def affixSlot(suffix: Int, term: Int, k: Int): Int =
    ((suffix * RegexTerms.length + term) * (2 * MaxAffixK + 1)) + k + MaxAffixK

  /** Every affix label in key order (so `PrefixF` before `SuffixF`), and the
    * rank of each `(suffix, term, k)` by `affixSlot`.
    */
  private val (affixLabels, affixRanks) = {
    val all = for (suffix <- 0 to 1; term <- RegexTerms.indices; k <- -MaxAffixK to MaxAffixK if k != 0)
      yield affixSlot(suffix, term, k) ->
        (if (suffix == 0) PrefixF(RegexTerms(term), k) else SuffixF(RegexTerms(term), k))
    val byKey = all.sortBy(_._2.key)
    val ranks = new Array[Int](2 * RegexTerms.length * (2 * MaxAffixK + 1))
    for (((slot, _), rank) <- byKey.zipWithIndex) ranks(slot) = rank
    (byKey.map(_._2: Label).toArray, ranks)
  }

  private def affix(suffix: Int, term: Int, k: Int): Long = {
    require(k != 0 && math.abs(k) <= MaxAffixK, s"affix label k = $k, past ±$MaxAffixK")
    (1L << 60) | affixRanks(affixSlot(suffix, term, k))
  }

  /** Orders strings `x` as their keys `CS(x)`, i.e. as `x + ")"`: so
    * `a!` sorts before `a`, which sorts before `a)`.
    */
  private val ConstKeyOrder: java.util.Comparator[String] = (x, y) => {
    val n = math.min(x.length, y.length)
    var i = 0
    while (i < n && x.charAt(i) == y.charAt(i)) i += 1
    if (i < n) x.charAt(i) - y.charAt(i)
    else if (x.length == y.length) 0
    else if (x.length < y.length) { val c = ')' - y.charAt(i); if (c != 0) c else -1 }
    else { val c = x.charAt(i) - ')'; if (c != 0) c else 1 }
  }
}

/** An open-addressing `Long -> Int` map for non-negative values, sized for
  * `expected` keys; `get` of an absent key is -1. Keys are spread by a
  * multiplicative hash (`LongMap`'s hash collides on the packed codes of
  * `LangDict`).
  */
private[lang] final class LongIntMap(expected: Int = 8) {
  private var ks   = new Array[Long](Integer.highestOneBit(math.max(8, expected) * 4 - 1))
  private var vs   = Array.fill(ks.length)(-1)
  private var size = 0

  /** The slot holding `k`, or the free slot where it would go. */
  private def probe(k: Long): Int = {
    val mask = vs.length - 1
    val h    = k * 0x9e3779b97f4a7c15L
    var i    = (h ^ (h >>> 32)).toInt & mask
    while (vs(i) >= 0 && ks(i) != k) i = (i + 1) & mask
    i
  }

  def get(k: Long): Int = vs(probe(k))

  def putIfAbsent(k: Long, v: Int): Unit = {
    if (2 * (size + 1) > vs.length) grow()
    val i = probe(k)
    if (vs(i) < 0) { size += 1; ks(i) = k; vs(i) = v }
  }

  def keys: Array[Long] = {
    val out = new Array[Long](size)
    var n = 0
    var i = 0
    while (i < vs.length) { if (vs(i) >= 0) { out(n) = ks(i); n += 1 }; i += 1 }
    out
  }

  def put(k: Long, v: Int): Unit = {
    if (2 * (size + 1) > vs.length) grow()
    val i = probe(k)
    if (vs(i) < 0) size += 1
    ks(i) = k; vs(i) = v
  }

  private def grow(): Unit = {
    val (oldK, oldV) = (ks, vs)
    ks = new Array[Long](2 * oldK.length)
    vs = Array.fill(2 * oldV.length)(-1)
    size = 0
    var i = 0
    while (i < oldK.length) { if (oldV(i) >= 0) put(oldK(i), oldV(i)); i += 1 }
  }
}

/** A growable `Int` array. */
private[lang] final class IntBuf {
  var a: Array[Int] = new Array[Int](16)
  var n: Int        = 0
  def apply(i: Int): Int = a(i)
  def +=(x: Int): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, 2 * n)
    a(n) = x; n += 1
  }
  def clear(): Unit = n = 0
}

/** A growable `Long` array. */
private[lang] final class LongBuf {
  var a: Array[Long] = new Array[Long](16)
  var n: Int         = 0
  def apply(i: Int): Long = a(i)
  def +=(x: Long): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, 2 * n)
    a(n) = x; n += 1
  }
  def clear(): Unit = n = 0
}

/** A program = a sequence of labels (Definition 3); consistency checking
  * per Theorem 4.5 without materializing the transformation graph.
  */
object PathCheck {

  def pathKey(path: Seq[Label]): String =
    if (path.isEmpty) "ε" else path.map(_.key).mkString("⊕")

  /** Does the program `path` transform `s` into exactly `t`? */
  def consistent(path: Seq[Label], s: String, t: String): Boolean = {
    var reachable = Set(0)
    for (label <- path) {
      if (reachable.isEmpty) return false
      reachable = reachable.flatMap { at =>
        Label.matchLengthsAt(label, s, t, at).map(at + _)
      }
    }
    reachable.contains(t.length)
  }
}
