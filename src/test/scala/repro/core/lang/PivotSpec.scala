package repro.core.lang

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Trans

class PivotSpec extends AnyFunSuite {

  private val cfg = PivotConfig()

  private def group(pool: Seq[Trans], c: PivotConfig = cfg): Vector[ProgGroup] =
    Pivot.groupByPrograms(pool, c, Map.empty)

  private def memberSets(gs: Vector[ProgGroup]): Set[Set[Trans]] =
    gs.map(_.members.toSet).toSet

  test("Example 4.6 + 4.7: Street->St, Avenue->Av, New York->NY group together") {
    val pool = Seq(Trans("Street", "St"), Trans("Avenue", "Av"), Trans("New York", "NY"))
    val gs = group(pool)
    // Street->St and Avenue->Av share SubStr(first cap)+Prefix/SubStr; with
    // affix labels all three can share: NY = cap1 + cap2... but Street/Avenue
    // have a single capital. The pivot must at least join Street/Avenue.
    val joined = gs.find(_.members.toSet.contains(Trans("Street", "St"))).get
    assert(joined.members.toSet.contains(Trans("Avenue", "Av")))
  }

  test("Example 4.7: with affix labels Street->St and Avenue->Ave share a program") {
    val pool = Seq(Trans("Street", "St"), Trans("Avenue", "Ave"))
    val gs = group(pool)
    assert(gs.size == 1)
    val path = gs.head.path
    assert(PathCheck.consistent(path, "Street", "St"))
    assert(PathCheck.consistent(path, "Avenue", "Ave"))
  }

  test("without affix labels Street->St and Avenue->Ave cannot group") {
    val pool = Seq(Trans("Street", "St"), Trans("Avenue", "Ave"))
    val gs = group(pool, cfg.copy(graph = cfg.graph.copy(affix = false)))
    assert(gs.size == 2)
  }

  test("Appendix C: 9th->9 and 3rd->3 group; 22nd->10 splits off") {
    val pool = Seq(Trans("9th", "9"), Trans("3rd", "3"), Trans("22nd", "10"))
    val gs = group(pool)
    val sets = memberSets(gs)
    assert(sets.contains(Set(Trans("9th", "9"), Trans("3rd", "3"))), sets)
    assert(sets.contains(Set(Trans("22nd", "10"))), sets)
  }

  test("pivot path is consistent with every member") {
    val pool = Seq(
      Trans("java(tm)", "java"), Trans("linux(r)", "linux"),
      Trans("9th", "9"), Trans("3rd", "3"), Trans("22nd", "22"))
    for (g <- group(pool); m <- g.members)
      assert(PathCheck.consistent(g.path, m.lhs, m.rhs), s"${g.pathKey} vs $m")
  }

  test("groups form a partition of the pool") {
    val pool = Seq(
      Trans("Street", "St"), Trans("Avenue", "Ave"), Trans("Road", "Rd"),
      Trans("9", "9th"), Trans("02141 Wisconsin", "02141 WI"), Trans("x", "y"))
    val gs = group(pool)
    val all = gs.flatMap(_.members)
    assert(all.size == pool.size)
    assert(all.toSet == pool.toSet)
  }

  test("threshold variants produce identical groups (Section 7.3 guarantee)") {
    val pool = Seq(
      Trans("Street", "St"), Trans("Avenue", "Ave"), Trans("Road", "Rd"),
      Trans("Boulevard", "Blvd"), Trans("9", "9th"), Trans("3", "3rd"),
      Trans("Wisconsin", "WI"), Trans("California", "CA"), Trans("abc", "xyz"))
    val variants = Seq(
      cfg.copy(localThreshold = false, globalThreshold = false),
      cfg.copy(localThreshold = true, globalThreshold = false),
      cfg.copy(localThreshold = false, globalThreshold = true),
      cfg.copy(localThreshold = true, globalThreshold = true),
    )
    val results = variants.map(c => memberSets(group(pool, c)))
    assert(results.distinct.size == 1, results.mkString("\n"))
  }

  test("single transformation pool yields one group") {
    val gs = group(Seq(Trans("alpha", "a")))
    assert(gs.size == 1 && gs.head.members == Vector(Trans("alpha", "a")))
  }

  test("empty-rhs transformations share the empty program") {
    val gs = group(Seq(Trans("(tm)", ""), Trans("(r)", "")))
    assert(gs.size == 1)
    assert(gs.head.pathKey == "ε")
  }

  test("an overlong deletion shares the empty program with a short one") {
    val overlong = "(" + "x" * 29 + ")" // 31 chars, past maxSideLen = 30
    val pool     = Seq(Trans(overlong, ""), Trans("(tm)", ""))
    val gs       = group(pool)
    assert(gs.map(g => (g.pathKey, g.members.toSet)) == Vector(("ε", pool.toSet)))
  }

  test("empty pool") {
    assert(group(Seq.empty) == Vector.empty)
  }

  test("maxPathLen limits grouping granularity but preserves the partition") {
    val pool = Seq(Trans("a b c", "c b a"), Trans("x y z", "z y x"), Trans("q", "qq"))
    val gs = group(pool, cfg.copy(maxPathLen = 2))
    assert(gs.flatMap(_.members).toSet == pool.toSet)
  }

  test("larger maxPathLen can only merge more (recall grows with θ, Appendix E)") {
    val pool = Seq(Trans("a b c", "c-b-c"), Trans("x y z", "z-y-z"))
    val g3 = group(pool, cfg.copy(maxPathLen = 1)).size
    val g5 = group(pool, cfg.copy(maxPathLen = 5)).size
    assert(g5 <= g3)
  }

  test("constTermFreq counts per-transformation containment") {
    val f = Pivot.constTermFreq(Seq("abab", "ab"), 3)
    assert(f("ab") == 2)
    assert(f("aba") == 1)
    assert(!f.contains("abab")) // length 4 > maxLen 3
  }

  test("constScoreFn prefers group-frequent, globally-rare terms") {
    val score = Pivot.constScoreFn(Map("dr." -> 10, "e" -> 10), Map("dr." -> 10, "e" -> 1000))
    assert(score("dr.") > score("e"))
    assert(score("unseen") == 0.0)
  }

  test("deterministic output across invocations") {
    val pool = Seq(Trans("Street", "St"), Trans("Avenue", "Ave"), Trans("9", "9th"),
      Trans("Wisconsin", "WI"), Trans("3", "3rd"))
    val a = group(pool).map(g => (g.pathKey, g.members))
    val b = group(pool.reverse).map(g => (g.pathKey, g.members))
    assert(a == b)
  }
}
