package repro.core

import org.scalatest.funsuite.AnyFunSuite

class RulesSpec extends AnyFunSuite {

  private def keys(rs: Iterable[MatchingRule]): Set[(String, String)] =
    rs.map(r => (r.key.a, r.key.b)).toSet

  test("Example 2.1: 9 St, 02141 Wisconsin vs 9th St, 02141 WI") {
    val rs = Rules.pairRules(1, "9 St, 02141 Wisconsin", "9th St, 02141 WI")
    assert(keys(rs) == Set(("9", "9th"), ("WI", "Wisconsin"), ("9 St, 02141 Wisconsin", "9th St, 02141 WI")))
  }

  test("Example 6.1: replacement sets of Wisconsin <-> WI across the cluster") {
    val v1 = "9 St, 02141 Wisconsin"
    val v2 = "9th St, 02141 WI"
    val v3 = "9 Street, 02141 WI"
    val rules = Rules.clusterRules(7, Seq(v1, v2, v3))
    val r = rules(RuleKey.of("Wisconsin", "WI"))
    // L[Wisconsin -> WI] = {<v1,13,21>}; L[WI -> Wisconsin] = {<v2,15,16>, <v3,17,18>}
    assert(r.key == RuleKey("WI", "Wisconsin"))
    assert(r.occB == Set(Occ(7, v1, 13, 21)))
    assert(r.occA == Set(Occ(7, v2, 15, 16), Occ(7, v3, 17, 18)))
    assert(r.frequency == 2)
  }

  test("Example 2.2: whole-value rule for names") {
    val rs = Rules.pairRules(1, "David Dewitt", "Dr. Dewitt, D.")
    assert(keys(rs).contains(("David Dewitt", "Dr. Dewitt, D.")))
  }

  test("identical values produce no rules") {
    assert(Rules.pairRules(1, "same", "same") == Vector.empty)
  }

  test("insertion rule has an empty side with an insertion-point occurrence") {
    val rs = Rules.pairRules(2, "andrew sloss", "andrew n sloss")
    assert(keys(rs) == Set(("", "n"), ("andrew n sloss", "andrew sloss")))
    val r = rs.head
    assert(r.key == RuleKey("", "n"))
    // empty side occurs in "andrew sloss" at the position where n would go
    assert(r.occA == Set(Occ(2, "andrew sloss", 8, 7)))
    assert(r.occB == Set(Occ(2, "andrew n sloss", 8, 8)))
  }

  test("deletion at end produces an end-of-value insertion point") {
    val rs = Rules.pairRules(3, "smith", "smith jr")
    assert(keys(rs) == Set(("", "jr"), ("smith", "smith jr")))
    val r = rs.head
    assert(r.key == RuleKey("", "jr"))
    assert(r.occA == Set(Occ(3, "smith", 6, 5)))
  }

  test("H&M example from Section 6 generates the three expected rules") {
    val rules = Rules.clusterRules(4, Seq("H & M", "H and M", "H &amp; M"))
    assert(rules.keySet == Set(
      RuleKey.of("&", "and"), RuleKey.of("&", "&amp;"), RuleKey.of("and", "&amp;"),
      RuleKey.of("H & M", "H and M"), RuleKey.of("H & M", "H &amp; M"), RuleKey.of("H and M", "H &amp; M")))
  }

  test("clusterRules merges occurrences across pairs") {
    val rules = Rules.clusterRules(5, Seq("9 St", "9th St", "9 Ave", "9th Ave"))
    val r = rules(RuleKey.of("9", "9th"))
    // 9 <-> 9th arises from pairs (9 St, 9th St) and (9 Ave, 9th Ave)
    assert(r.occA.map(_.value) == Set("9 St", "9 Ave"))
    assert(r.occB.map(_.value) == Set("9th St", "9th Ave"))
    assert(r.frequency == 2)
  }

  test("pairs with no common token produce only a whole-gap rule") {
    val rs = Rules.pairRules(5, "9 Street", "9th St")
    assert(keys(rs) == Set(("9 Street", "9th St")))
  }

  test("clusterRules deduplicates repeated values") {
    val rules = Rules.clusterRules(6, Seq("a x", "a y", "a x"))
    assert(rules.keySet == Set(RuleKey.of("x", "y"), RuleKey.of("a x", "a y")))
    assert(rules(RuleKey.of("x", "y")).frequency == 1)
  }

  test("single-value cluster yields no rules") {
    assert(Rules.clusterRules(8, Seq("only one")) == Map.empty)
  }

  test("full-value rule coexists with gap rules") {
    val rs = Rules.pairRules(9, "9 St", "9th St")
    assert(keys(rs) == Set(("9", "9th"), ("9 St", "9th St")))
  }

  test("multi-token gap becomes a single rule side with interior whitespace") {
    val rs = Rules.pairRules(10, "x new york z", "x ny z")
    assert(keys(rs) == Set(("new york", "ny"), ("x new york z", "x ny z")))
  }

  test("RuleKey.of canonicalizes order") {
    assert(RuleKey.of("b", "a") == RuleKey("a", "b"))
    assert(RuleKey.of("a", "b") == RuleKey("a", "b"))
    intercept[IllegalArgumentException](RuleKey("b", "a"))
  }

  test("merge unites rules by key across clusters") {
    val m1 = Rules.clusterRules(1, Seq("9 St", "9th St"))
    val m2 = Rules.clusterRules(2, Seq("9 Ave", "9th Ave"))
    val merged = Rules.merge(m1.valuesIterator ++ m2.valuesIterator)
    val r = merged(RuleKey.of("9", "9th"))
    assert(r.occA.map(_.cluster) == Set(1L, 2L))
  }

  test("frequency is the larger replacement-set size") {
    val r = MatchingRule(RuleKey("a", "b"),
      Set(Occ(1, "a x", 1, 1)),
      Set(Occ(1, "b x", 1, 1), Occ(2, "b y", 1, 1)))
    assert(r.frequency == 2)
  }
}
