package repro.core

/** A whitespace-delimited token of an attribute value, with its 1-based
  * inclusive character span `[begin, end]` in the original string.
  *
  * The paper indexes strings 1-based (Example 6.1: "Wisconsin" in
  * "9 St, 02141 Wisconsin" occupies positions 13..21).
  */
final case class Token(text: String, begin: Int, end: Int)

/** Whitespace tokenization that remembers character offsets, so matching
  * rules can carry replacement triples ⟨value, p, q⟩ (Section 6).
  */
object Tokens {

  /** Split `s` into maximal non-whitespace runs with 1-based inclusive spans. */
  def tokenize(s: String): Vector[Token] = {
    val out = Vector.newBuilder[Token]
    var i = 0
    val n = s.length
    while (i < n) {
      if (s.charAt(i).isWhitespace) i += 1
      else {
        val start = i
        while (i < n && !s.charAt(i).isWhitespace) i += 1
        out += Token(s.substring(start, i), start + 1, i)
      }
    }
    out.result()
  }

  /** The substring of `s` covering tokens `from..to` (inclusive token indices)
    * including any interior whitespace; empty when the range is empty.
    */
  def span(s: String, tokens: Vector[Token], from: Int, to: Int): String =
    if (from > to) "" else s.substring(tokens(from).begin - 1, tokens(to).end)

  /** Replace the 1-based inclusive span `[p, q]` of `v` with `repl`
    * (`q = p - 1` denotes an empty span, i.e., pure insertion at `p`).
    * Each of the two seams, where the kept text meets the replacement,
    * becomes one space, or nothing at an edge of the result; whitespace
    * elsewhere in `v` and inside `repl` is kept as it is.
    */
  def applyReplacement(v: String, p: Int, q: Int, repl: String): String = {
    require(p >= 1 && q >= p - 1 && q <= v.length, s"bad span [$p,$q] on '$v'")
    // Spans always cover whole token runs, so a seam of one space keeps token
    // boundaries intact even for insertions and deletions (repl = "").
    Iterator(v.substring(0, p - 1).stripTrailing(), repl.strip(), v.substring(q).stripLeading())
      .filter(_.nonEmpty)
      .mkString(" ")
  }
}
