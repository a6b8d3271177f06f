package repro.core

import org.scalatest.funsuite.AnyFunSuite

class TokensSpec extends AnyFunSuite {

  test("tokenize simple sentence with 1-based inclusive spans") {
    val toks = Tokens.tokenize("9 St, 02141 Wisconsin")
    assert(toks.map(_.text) == Vector("9", "St,", "02141", "Wisconsin"))
    assert(toks(0) == Token("9", 1, 1))
    assert(toks(1) == Token("St,", 3, 5))
    assert(toks(2) == Token("02141", 7, 11))
    assert(toks(3) == Token("Wisconsin", 13, 21)) // Example 6.1 positions
  }

  test("tokenize empty string") {
    assert(Tokens.tokenize("") == Vector.empty)
  }

  test("tokenize whitespace-only string") {
    assert(Tokens.tokenize("   \t ") == Vector.empty)
  }

  test("tokenize leading and trailing whitespace") {
    val toks = Tokens.tokenize("  a b ")
    assert(toks == Vector(Token("a", 3, 3), Token("b", 5, 5)))
  }

  test("tokenize multiple interior spaces") {
    val toks = Tokens.tokenize("a   b")
    assert(toks == Vector(Token("a", 1, 1), Token("b", 5, 5)))
  }

  test("span covers tokens with interior whitespace") {
    val s    = "9 St, 02141 Wisconsin"
    val toks = Tokens.tokenize(s)
    assert(Tokens.span(s, toks, 0, 1) == "9 St,")
    assert(Tokens.span(s, toks, 1, 3) == "St, 02141 Wisconsin")
    assert(Tokens.span(s, toks, 2, 2) == "02141")
  }

  test("span of empty range is empty") {
    val s = "a b"
    assert(Tokens.span(s, Tokens.tokenize(s), 1, 0) == "")
  }

  test("applyReplacement replaces an interior token") {
    assert(Tokens.applyReplacement("9 St, 02141 Wisconsin", 13, 21, "WI") == "9 St, 02141 WI")
  }

  test("applyReplacement replaces the first token") {
    assert(Tokens.applyReplacement("9 St", 1, 1, "9th") == "9th St")
  }

  test("applyReplacement deletion collapses whitespace") {
    assert(Tokens.applyReplacement("a b c", 3, 3, "") == "a c")
  }

  test("applyReplacement deletion at start and end") {
    assert(Tokens.applyReplacement("a b c", 1, 1, "") == "b c")
    assert(Tokens.applyReplacement("a b c", 5, 5, "") == "a b")
  }

  test("applyReplacement insertion in the middle (empty span)") {
    assert(Tokens.applyReplacement("andrew sloss", 8, 7, "n") == "andrew n sloss")
  }

  test("applyReplacement insertion at end of value") {
    assert(Tokens.applyReplacement("andrew sloss", 13, 12, "jr") == "andrew sloss jr")
  }

  test("applyReplacement of whole value") {
    assert(Tokens.applyReplacement("a b", 1, 3, "x y") == "x y")
  }

  test("applyReplacement keeps whitespace outside the edit") {
    assert(Tokens.applyReplacement("a\tb c", 5, 5, "d") == "a\tb d")
    assert(Tokens.applyReplacement("a  b c", 6, 6, "") == "a  b")
  }

  test("applyReplacement of whole value returns the replacement verbatim") {
    assert(Tokens.applyReplacement("a b", 1, 3, "x  y") == "x  y")
  }

  test("applyReplacement rejects bad spans") {
    intercept[IllegalArgumentException](Tokens.applyReplacement("abc", 0, 1, "x"))
    intercept[IllegalArgumentException](Tokens.applyReplacement("abc", 2, 5, "x"))
    intercept[IllegalArgumentException](Tokens.applyReplacement("abc", 3, 1, "x"))
  }
}
