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
      val ms = Term.matches(t, s)
      val m  = ms.length
      val idx = if (k > 0) k else m + 1 + k
      if (k == 0 || idx < 1 || idx > m) None
      else Some(if (dir == 'B') ms(idx - 1)._1 else ms(idx - 1)._2)
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

  /** The k-th (possibly backward-indexed) match of `t` in `s`, if any. */
  private def kthMatch(t: Term, k: Int, s: String): Option[String] = {
    val ms  = Term.matches(t, s)
    val m   = ms.length
    val idx = if (k > 0) k else m + 1 + k
    if (k == 0 || idx < 1 || idx > m) None
    else Some(s.substring(ms(idx - 1)._1 - 1, ms(idx - 1)._2 - 1))
  }

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
  * While graphs are built a label is a packed `Long` code over string and
  * position ids. `number` then gives the labels that survived the per-edge
  * caps dense ids in the Appendix-B static order `(staticRank, key)`, so
  * that order is int order everywhere downstream.
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

  /** Static order of position ids: `(Pos.rank, key)`, then the id. */
  def posBefore(p: Int, q: Int): Boolean =
    if (posRanks(p) != posRanks(q)) posRanks(p) < posRanks(q)
    else {
      val c = posObjs(p).key.compareTo(posObjs(q).key)
      c < 0 || (c == 0 && p < q)
    }

  private var posOrder: Array[Int] = Array.emptyIntArray
  private var posKeysPrefixFree    = false

  /** Rank the position keys; call after the last position is interned and
    * before labels are compared.
    */
  def orderPositions(): Unit = {
    val byKey = Array.range(0, posObjs.length).sortBy(posObjs(_).key)
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

  // Label codes: the kind in bits 60-61, then position ids, term and k, or a string id.
  def subStr(l: Int, r: Int): Long    = (SubStrKind << 60) | (l.toLong << 30) | r
  def prefix(term: Int, k: Int): Long = (PrefixKind << 60) | (term.toLong << 32) | (k & 0xffffffffL)
  def suffix(term: Int, k: Int): Long = (SuffixKind << 60) | (term.toLong << 32) | (k & 0xffffffffL)
  def constant(x: String): Long       = (ConstKind << 60) | strId(x)

  def rankOf(code: Long): Int = code >>> 60 match {
    case SubStrKind => Label.subStrRank(posRanks((code >>> 30).toInt & Mask30), posRanks(code.toInt & Mask30))
    case ConstKind  => 4
    case _          => 1
  }

  private val keyIdx  = new LongIntMap
  private val keyStrs = mutable.ArrayBuffer.empty[String]

  def keyOf(code: Long): String = {
    val i = keyIdx.get(code)
    if (i >= 0) keyStrs(i)
    else {
      val key = labelOf(code).key
      keyIdx.put(code, keyStrs.length)
      keyStrs += key
      key
    }
  }

  private def labelOf(code: Long): Label = code >>> 60 match {
    case SubStrKind => SubStrF(pos((code >>> 30).toInt & Mask30), pos(code.toInt & Mask30))
    case PrefixKind => PrefixF(RegexTerms((code >>> 32).toInt & 3), code.toInt)
    case SuffixKind => SuffixF(RegexTerms((code >>> 32).toInt & 3), code.toInt)
    case _          => ConstantStr(strs(code.toInt))
  }

  /** Static order of label codes: `(staticRank, key)`, then the code. */
  def before(a: Long, b: Long): Boolean = {
    val ra = rankOf(a); val rb = rankOf(b)
    if (ra != rb) ra < rb
    else {
      val c = compareKeys(a, b)
      c < 0 || (c == 0 && a < b)
    }
  }

  /** The sign of `keyOf(a).compareTo(keyOf(b))`. SubStr keys, the bulk of
    * every edge, are not built: when no position key is a prefix of another,
    * `SS(l,r)` keys order as `(key(l), key(r))`, i.e. by `posOrder`.
    */
  private def compareKeys(a: Long, b: Long): Int =
    if ((a >>> 60) != SubStrKind || (b >>> 60) != SubStrKind) keyOf(a).compareTo(keyOf(b))
    else {
      val l1 = (a >>> 30).toInt & Mask30; val r1 = a.toInt & Mask30
      val l2 = (b >>> 30).toInt & Mask30; val r2 = b.toInt & Mask30
      if (posKeysPrefixFree) { if (l1 != l2) posOrder(l1) - posOrder(l2) else posOrder(r1) - posOrder(r2) }
      else keyOf(a).compareTo(keyOf(b))
    }

  private var codes: Array[Long]   = Array.emptyLongArray
  private var labels: Array[Label] = Array.empty

  /** Number the distinct label codes in `used` in static order; returns the
    * code -> id map. Called once, after the pool's graphs are built.
    */
  def number(used: Seq[Array[Long]]): LongIntMap = {
    val ids = new LongIntMap
    for (cs <- used; c <- cs) if (ids.get(c) < 0) ids.put(c, 0)
    codes = ids.keys.sortWith(before)
    labels = new Array[Label](codes.length)
    for (id <- codes.indices) ids.put(codes(id), id)
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
  private final val SubStrKind = 0L
  private final val PrefixKind = 1L
  private final val SuffixKind = 2L
  private final val ConstKind  = 3L
  private final val Mask30     = (1 << 30) - 1
  private val RegexTerms       = Term.regexTerms.toArray
}

/** An open-addressing `Long -> Int` map for non-negative values; `get` of an
  * absent key is -1. Keys are spread by a multiplicative hash (`LongMap`'s
  * hash collides on the packed codes of `LangDict`).
  */
private[lang] final class LongIntMap {
  private var ks   = new Array[Long](16)
  private var vs   = Array.fill(16)(-1)
  private var size = 0

  private def slot(k: Long, mask: Int): Int = {
    val h = k * 0x9e3779b97f4a7c15L
    (h ^ (h >>> 32)).toInt & mask
  }

  def get(k: Long): Int = {
    val mask = vs.length - 1
    var i    = slot(k, mask)
    while (vs(i) >= 0 && ks(i) != k) i = (i + 1) & mask
    vs(i)
  }

  def put(k: Long, v: Int): Unit = {
    if (2 * (size + 1) > vs.length) grow()
    val mask = vs.length - 1
    var i    = slot(k, mask)
    while (vs(i) >= 0 && ks(i) != k) i = (i + 1) & mask
    if (vs(i) < 0) size += 1
    ks(i) = k; vs(i) = v
  }

  def keys: Array[Long] = ks.indices.iterator.filter(vs(_) >= 0).map(ks).toArray

  private def grow(): Unit = {
    val (oldK, oldV) = (ks, vs)
    ks = new Array[Long](2 * oldK.length)
    vs = Array.fill(2 * oldV.length)(-1)
    size = 0
    for (i <- oldK.indices if oldV(i) >= 0) put(oldK(i), oldV(i))
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
