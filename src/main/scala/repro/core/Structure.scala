package repro.core

/** The "structure" of a string / transformation (Section 3).
  *
  * Every character belongs to exactly one of five term categories:
  * digits `T_d=[0-9]+`, lowercase `T_l=[a-z]+`, uppercase `T_C=[A-Z]+`,
  * whitespace `T_b=\s+`, or a single-character term for anything else.
  * The structure is the sequence of terms obtained by collapsing maximal
  * runs of the four regex categories.
  *
  * Encoding: one char per term — 'd', 'l', 'C', 'b' for the regex terms and
  * the literal character for single-char terms. This is unambiguous because
  * single-char terms are never alphanumeric or whitespace. The one exception
  * is a literal `Sep` term, written `SepTerm` ('x', an ASCII letter no other
  * term produces), so a structure never holds `Sep`.
  */
object Structure {

  /** Separator for transformation structure keys; `of` never emits it. */
  final val Sep: Char = '\u0001'

  /** How `of` writes a single-char term that is `Sep`. */
  final val SepTerm: Char = 'x'

  /** Sentinel category for single-character terms. */
  final val SingleCharCat: Char = '\u0000'

  /** Category tag of a character: 'd', 'l', 'C', 'b', or SingleCharCat (single-char term). */
  def category(c: Char): Char =
    if (c >= '0' && c <= '9') 'd'
    else if (c >= 'a' && c <= 'z') 'l'
    else if (c >= 'A' && c <= 'Z') 'C'
    else if (c.isWhitespace) 'b'
    else SingleCharCat

  /** STRUC(s): e.g. STRUC("9") = "d", STRUC("9th") = "dl", STRUC("java(tm)") = "l(l)". */
  def of(s: String): String = {
    val sb = new StringBuilder
    var i = 0
    while (i < s.length) {
      val cat = category(s.charAt(i))
      if (cat == SingleCharCat) {
        sb.append(if (s.charAt(i) == Sep) SepTerm else s.charAt(i))
        i += 1
      } else {
        sb.append(cat)
        i += 1
        while (i < s.length && category(s.charAt(i)) == cat) i += 1
      }
    }
    sb.toString
  }

  /** Structure of a directed transformation lhs → rhs (Definition 2): the
    * pair of side structures joined with `Sep`. Neither side holds `Sep`, so
    * the key is injective in the pair.
    */
  def ofTransformation(lhs: String, rhs: String): String = of(lhs) + Sep + of(rhs)
}
