package repro.core.lang

import org.scalatest.funsuite.AnyFunSuite

class LangSpec extends AnyFunSuite {

  // ---------------------------------------------------------------- terms

  test("regex term matches are maximal runs") {
    assert(Term.matches(Td, "9th St, 02141") == Vector((1, 2), (9, 14)))
    assert(Term.matches(Tl, "9th St, 02141") == Vector((2, 4), (6, 7)))
    assert(Term.matches(Tc, "9th St, 02141") == Vector((5, 6)))
    assert(Term.matches(Tb, "9th St, 02141") == Vector((4, 5), (8, 9)))
  }

  test("constant term matches every overlapping occurrence") {
    assert(Term.matches(TStr("aa"), "aaaa") == Vector((1, 3), (2, 4), (3, 5)))
    assert(Term.matches(TStr("xy"), "abc") == Vector.empty)
    assert(Term.matches(TStr(""), "abc") == Vector.empty)
  }

  test("matches on empty string") {
    for (t <- Term.regexTerms) assert(Term.matches(t, "") == Vector.empty)
  }

  // ------------------------------------------------------------ positions

  test("Example 4.1: ConstPos on David Dewitt") {
    val s = "David Dewitt"
    assert(Pos.eval(ConstPos(2), s) == Some(2))
    // |s| = 12 (the paper's Example 4.1 says 13, a miscount): 12 + 1 - 5 = 8
    assert(Pos.eval(ConstPos(-5), s) == Some(8))
  }

  test("Example 4.1: MatchPos on David Dewitt") {
    val s = "David Dewitt"
    assert(Pos.eval(MatchPos(Tc, 1, 'B'), s) == Some(1))
    assert(Pos.eval(MatchPos(Tc, 1, 'E'), s) == Some(2))
    assert(Pos.eval(MatchPos(Tl, -1, 'B'), s) == Some(8))  // "ewitt"
    assert(Pos.eval(MatchPos(Tl, -1, 'E'), s) == Some(13))
  }

  test("MatchPos out of range returns None") {
    val s = "abc"
    assert(Pos.eval(MatchPos(Td, 1, 'B'), s).isEmpty)
    assert(Pos.eval(MatchPos(Tl, 2, 'B'), s).isEmpty)
    assert(Pos.eval(MatchPos(Tl, -2, 'B'), s).isEmpty)
    assert(Pos.eval(MatchPos(Tl, 0, 'B'), s).isEmpty)
  }

  test("ConstPos bounds") {
    assert(Pos.eval(ConstPos(4), "abc") == Some(4)) // |s|+1 allowed (DESIGN §6)
    assert(Pos.eval(ConstPos(5), "abc").isEmpty)
    assert(Pos.eval(ConstPos(-3), "abc") == Some(1))
    assert(Pos.eval(ConstPos(-4), "abc").isEmpty)
    assert(Pos.eval(ConstPos(0), "abc").isEmpty)
  }

  test("MatchPos with a constant string term") {
    val s = "Dr. Dewitt"
    assert(Pos.eval(MatchPos(TStr("Dr."), 1, 'E'), s) == Some(4))
  }

  // -------------------------------------------------------------- labels

  test("Example 4.2: ConstantStr and SubStr") {
    val s = "David Dewitt"
    assert(Label.evalDeterministic(ConstantStr("MIT"), s) == Some("MIT"))
    assert(Label.evalDeterministic(
      SubStrF(MatchPos(Tc, 1, 'B'), MatchPos(Tc, 1, 'E')), s) == Some("D"))
  }

  test("SubStr requires l < r") {
    val s = "abc"
    assert(Label.evalDeterministic(SubStrF(ConstPos(2), ConstPos(2)), s).isEmpty)
    assert(Label.evalDeterministic(SubStrF(ConstPos(3), ConstPos(1)), s).isEmpty)
  }

  test("Example 4.3: the Dr. Dewitt, D. program") {
    val s = "David Dewitt"
    val program = Vector(
      ConstantStr("Dr. "),
      SubStrF(MatchPos(Tc, 2, 'B'), MatchPos(Tl, 2, 'E')),
      ConstantStr(", "),
      SubStrF(MatchPos(Tc, 1, 'B'), MatchPos(Tc, 1, 'E')),
      ConstantStr("."),
    )
    val out = program.map(l => Label.evalDeterministic(l, s).get).mkString
    assert(out == "Dr. Dewitt, D.")
    assert(PathCheck.consistent(program, s, "Dr. Dewitt, D."))
    // ...and the same program transforms Jeff Ullman (Section 4.2)
    assert(PathCheck.consistent(program, "Jeff Ullman", "Dr. Ullman, J."))
  }

  test("Prefix label semantics (Example 4.7)") {
    assert(PathCheck.consistent(Seq(PrefixF(Tl, 1)), "Street", "t"))   // 't' prefix of "treet"
    assert(PathCheck.consistent(Seq(PrefixF(Tl, 1)), "Avenue", "ve"))  // 've' prefix of "venue"
    assert(!PathCheck.consistent(Seq(PrefixF(Tl, 1)), "Street", "re"))
    assert(!PathCheck.consistent(Seq(PrefixF(Tl, 1)), "Street", ""))
  }

  test("Suffix label semantics") {
    assert(PathCheck.consistent(Seq(SuffixF(Tl, 1)), "Street", "eet"))
    assert(PathCheck.consistent(Seq(SuffixF(Tl, 1)), "Street", "treet"))
    assert(!PathCheck.consistent(Seq(SuffixF(Tl, 1)), "Street", "tre"))
  }

  test("affix labels support backwards k") {
    assert(PathCheck.consistent(Seq(PrefixF(Tl, -1)), "New York", "or"))
    assert(PathCheck.consistent(Seq(SuffixF(Tc, -2)), "New York", "N"))
  }

  test("matchLengthsAt for deterministic and affix labels") {
    assert(Label.matchLengthsAt(ConstantStr("ab"), "s", "xaby", 1) == List(2))
    assert(Label.matchLengthsAt(ConstantStr("ab"), "s", "xaby", 0) == Nil)
    assert(Label.matchLengthsAt(PrefixF(Tl, 1), "street", "str", 0) == List(1, 2, 3))
    assert(Label.matchLengthsAt(SuffixF(Tl, 1), "street", "xt", 1) == List(1))
  }

  // ------------------------------------------------------------ PathCheck

  test("PathCheck: consistent single ConstantStr") {
    assert(PathCheck.consistent(Vector(ConstantStr("abc")), "whatever", "abc"))
    assert(!PathCheck.consistent(Vector(ConstantStr("abc")), "whatever", "abd"))
  }

  test("PathCheck: prefix program shared by Street->St and Avenue->Ave (Example 4.7)") {
    val program = Vector(
      SubStrF(MatchPos(Tc, 1, 'B'), MatchPos(Tc, 1, 'E')),
      PrefixF(Tl, 1),
    )
    assert(PathCheck.consistent(program, "Street", "St"))
    assert(PathCheck.consistent(program, "Avenue", "Ave"))
    assert(!PathCheck.consistent(program, "Street", "Sx"))
  }

  test("PathCheck: empty path only expresses empty output") {
    assert(PathCheck.consistent(Vector.empty, "abc", ""))
    assert(!PathCheck.consistent(Vector.empty, "abc", "a"))
  }

  test("PathCheck: branching affix lengths explored") {
    // Prefix can output "a" or "ab"; followed by ConstantStr("bc") only "a"+"bc" works
    val program = Vector(PrefixF(Tl, 1), ConstantStr("bc"))
    assert(PathCheck.consistent(program, "abz", "abc"))
  }

  test("pathKey is stable and distinguishes programs") {
    val p1 = Vector(ConstantStr("a"), PrefixF(Tl, 1))
    val p2 = Vector(ConstantStr("a"), PrefixF(Tl, 2))
    assert(PathCheck.pathKey(p1) != PathCheck.pathKey(p2))
    assert(PathCheck.pathKey(Vector.empty) == "ε")
  }

  test("staticRank prefers regex SubStr, then affix, then const-term, then ConstPos, then ConstantStr") {
    val regexSS = SubStrF(MatchPos(Tl, 1, 'B'), MatchPos(Tl, 1, 'E'))
    val strSS   = SubStrF(MatchPos(TStr("x"), 1, 'B'), MatchPos(Tl, 1, 'E'))
    val cpSS    = SubStrF(ConstPos(1), ConstPos(2))
    assert(Label.staticRank(regexSS) < Label.staticRank(PrefixF(Tl, 1)))
    assert(Label.staticRank(PrefixF(Tl, 1)) < Label.staticRank(strSS))
    assert(Label.staticRank(strSS) < Label.staticRank(cpSS))
    assert(Label.staticRank(cpSS) < Label.staticRank(ConstantStr("a")))
  }
}
