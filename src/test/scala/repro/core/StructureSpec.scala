package repro.core

import org.scalatest.funsuite.AnyFunSuite

class StructureSpec extends AnyFunSuite {

  test("paper Section 3 examples: STRUC(9) = Td, STRUC(9th) = Td Tl") {
    assert(Structure.of("9") == "d")
    assert(Structure.of("9th") == "dl")
  }

  test("maximal runs collapse: digits, lower, upper, whitespace") {
    assert(Structure.of("02141") == "d")
    assert(Structure.of("Wisconsin") == "Cl")
    assert(Structure.of("WI") == "C")
    assert(Structure.of("a b") == "lbl")
    assert(Structure.of("a  b") == "lbl") // run of 2 spaces is one Tb
  }

  test("single-character terms are literal") {
    assert(Structure.of("-") == "-")
    assert(Structure.of("java(tm)") == "l(l)")
    assert(Structure.of("linux(r)") == "l(l)")
    assert(Structure.of("9th St, 02141") == "dlbCl,bd")
  }

  test("empty string has empty structure") {
    assert(Structure.of("") == "")
  }

  test("structure of transformation is direction sensitive") {
    val k1 = Structure.ofTransformation("java(tm)", "java")
    val k2 = Structure.ofTransformation("java", "java(tm)")
    assert(k1 != k2)
  }

  test("Example 5.1: java(tm)->java and linux->linux(r) have symmetric structures") {
    val k1 = Structure.ofTransformation("java(tm)", "java")
    val k2 = Structure.ofTransformation("linux", "linux(r)")
    assert(Trans("java(tm)", "java").reverse.structKey == k2)
    assert(Trans("java(tm)", "java").reverse.structKey != k1) // not self-symmetric (sides differ)
  }

  test("Example 5.1 resolution: java->java(tm) shares structure with linux->linux(r)") {
    assert(Structure.ofTransformation("java", "java(tm)") ==
      Structure.ofTransformation("linux", "linux(r)"))
  }

  test("9->9th, 3->3rd, 3->5th share a structure group (Section 3)") {
    val k = Structure.ofTransformation("9", "9th")
    assert(Structure.ofTransformation("3", "3rd") == k)
    assert(Structure.ofTransformation("3", "5th") == k)
  }

  test("reverse is an involution and gives the symmetric structure key") {
    val t = Trans("9 St", "9th Street")
    assert(t.reverse.reverse.structKey == t.structKey)
    assert(t.reverse.structKey == Structure.of("9th Street") + Structure.Sep + Structure.of("9 St"))
    assert(t.reverse.structKey != t.structKey)
  }

  test("category assignment is total and consistent with of()") {
    for (c <- "aZ0 -_.,;()&")
      assert(("dlCb" + Structure.SingleCharCat).contains(Structure.category(c)),
        s"char '${c}' (${c.toInt}) -> category ${Structure.category(c).toInt}")
    // non-ascii letters are single-char terms
    assert(Structure.category('é') == Structure.SingleCharCat)
  }

  test("structure with empty side in a transformation key") {
    val k = Structure.ofTransformation("", "th")
    assert(k == Structure.Sep + "l")
    assert(Trans("", "th").reverse.structKey == "l" + Structure.Sep)
  }

  test("a literal separator is a term of its own and never appears in a structure") {
    assert(Structure.of("\u0001") == Structure.SepTerm.toString)
    assert(Structure.of("a\u0001b") == "lxl")
    assert(Structure.of("x") == "l")
    assert(Structure.ofTransformation("", "\u0001") != Structure.ofTransformation("\u0001", ""))
    assert(Trans("a\u0001", "b").reverse.structKey == Structure.ofTransformation("b", "a\u0001"))
    assert(Structure.ofTransformation("a\u0001", "b").count(_ == Structure.Sep) == 1)
  }
}
