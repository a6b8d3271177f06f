package repro.core.lang

import org.scalatest.funsuite.AnyFunSuite

class LangDictSpec extends AnyFunSuite {

  /** SubStr labels over `terms`' MatchPos plus regex/ConstPos positions, and
    * a few affix and constant labels, numbered by a fresh dictionary.
    */
  private def numbered(terms: Seq[String]): (Seq[Long], LangDict) = {
    val d = new LangDict
    val positions =
      (for (s <- terms; k <- Seq(1, -1, 12); end <- Seq(false, true)) yield d.strMatchPos(d.strId(s), k, end)) ++
        Seq(d.matchPos(0, 1, end = false), d.matchPos(1, -2, end = true), d.constPos(3), d.constPos(-1), d.constPos(12))
    d.orderPositions()
    val codes = (for (l <- positions; r <- positions) yield d.subStr(l, r)) ++
      Seq(d.prefix(1, 1), d.prefix(1, -1), d.suffix(2, -1), d.constant("x"), d.constant("x)"), d.constant("x!"))
    d.number(Seq(codes.toArray))
    (codes, d)
  }

  private def assertStaticOrder(terms: Seq[String]): Unit = {
    val (codes, d) = numbered(terms)
    val labels = (0 until d.numLabels).map(d.label)
    assert(labels.size == codes.distinct.size)
    assert(labels.distinct.size == labels.size)
    assert(labels == labels.sortBy(l => (Label.staticRank(l), l.key)))
  }

  test("label ids follow (staticRank, key)") {
    assertStaticOrder(Seq("a", "b)", "10"))
  }

  test("label ids follow (staticRank, key) when one position key prefixes another") {
    // MP(T(a),1,B) is a prefix of MP(T(a),1,B),1,B)
    assertStaticOrder(Seq("a", "a),1,B", "a),-1,E"))
  }

  test("an affix k past the bound is rejected") {
    val d = new LangDict
    assert(d.prefix(0, LangDict.MaxAffixK) != d.prefix(0, -LangDict.MaxAffixK))
    intercept[IllegalArgumentException](d.prefix(0, LangDict.MaxAffixK + 1))
    intercept[IllegalArgumentException](d.suffix(3, -LangDict.MaxAffixK - 1))
    intercept[IllegalArgumentException](d.prefix(1, 0))
  }

  test("interning is idempotent") {
    val d = new LangDict
    assert(d.constPos(2) == d.constPos(2))
    assert(d.matchPos(0, 1, end = true) != d.matchPos(0, 1, end = false))
    assert(d.strId("ab") == d.strId("ab"))
    assert(d.pos(d.strMatchPos(d.strId("ab"), -1, end = true)) == MatchPos(TStr("ab"), -1, 'E'))
  }
}
