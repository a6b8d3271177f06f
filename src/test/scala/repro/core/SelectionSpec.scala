package repro.core

import org.scalatest.funsuite.AnyFunSuite

class SelectionSpec extends AnyFunSuite {

  private def sel(keys: Seq[(String, String)], m: DirMethod): Vector[Trans] =
    Selection.select(keys.map { case (a, b) => RuleKey.of(a, b) }, m)

  test("every method selects exactly one transformation per rule") {
    val keys = Seq(("java", "java(tm)"), ("linux", "linux(r)"), ("9", "9th"),
      ("St", "Street"), ("WI", "Wisconsin"))
    for (m <- Seq(RandDir, LongDir, BestDir, RevDir)) {
      val ts = sel(keys, m)
      assert(ts.size == keys.size, s"$m")
      assert(ts.map(_.key).toSet == keys.map { case (a, b) => RuleKey.of(a, b) }.toSet, s"$m")
    }
  }

  test("LongDir picks the longer side as lhs") {
    val ts = sel(Seq(("St", "Street")), LongDir)
    assert(ts == Vector(Trans("Street", "St")))
  }

  test("LongDir tie goes to the lexicographically larger side") {
    val ts = sel(Seq(("abc", "xyz")), LongDir)
    assert(ts == Vector(Trans("xyz", "abc")))
  }

  test("Example 5.1: BestDir avoids symmetric structures") {
    // java <-> java(tm) and linux <-> linux(r): BestDir must choose directions
    // with a single shared structure group.
    val ts = sel(Seq(("java", "java(tm)"), ("linux", "linux(r)")), BestDir)
    assert(ts.map(_.structKey).distinct.size == 1)
    // ...and prefers the longer-lhs option (option 2 in the paper):
    assert(ts.toSet == Set(Trans("java(tm)", "java"), Trans("linux(r)", "linux")))
  }

  test("RevDir reverses BestDir") {
    val keys = Seq(("java", "java(tm)"), ("linux", "linux(r)"))
    val best = sel(keys, BestDir).toSet
    val rev  = sel(keys, RevDir).toSet
    assert(rev == best.map(_.reverse))
  }

  test("Case 1 (equal structures): longer side becomes lhs") {
    // 9th <-> 9 has different structures; use e.g. miami <-> rome (both Tl)
    val ts = sel(Seq(("rome", "miami")), BestDir)
    assert(ts == Vector(Trans("miami", "rome")))
  }

  test("Appendix C example: five rules end with one transformation each") {
    // matching rules from Figure 9 (left): 9th<->9, 3rd<->3, 22nd<->10,
    // plus two same-structure rules standing in for the red italics.
    val keys = Seq(("9th", "9"), ("3rd", "3"), ("22nd", "10"),
      ("miami", "rome"), ("dallas", "austin"))
    val ts = sel(keys, BestDir)
    assert(ts.size == 5)
    // the ordinal rules keep the dl-side as lhs (longer average side)
    assert(ts.contains(Trans("9th", "9")))
    assert(ts.contains(Trans("3rd", "3")))
    assert(ts.contains(Trans("22nd", "10")))
  }

  test("BestDir groups symmetric structure pairs consistently (no split)") {
    val keys = Seq(("9th", "9"), ("3rd", "3"), ("22nd", "10"))
    val ts = sel(keys, BestDir)
    assert(ts.map(_.structKey).distinct.size == 1)
  }

  test("every method selects one transformation per rule whose sides hold the key separator") {
    val k1 = RuleKey.of("a\u0001", "b")
    val k2 = RuleKey.of("", "\u0001")
    for (keys <- Seq(Seq(k1), Seq(k2), Seq(k1, k2)); m <- Seq(RandDir, LongDir, BestDir, RevDir)) {
      val ts = Selection.select(keys, m)
      assert(ts.size == keys.size && ts.map(_.key).toSet == keys.toSet, s"$m $keys: $ts")
    }
  }

  test("RandDir is deterministic in the seed") {
    val keys = Seq(("a", "bb"), ("c", "dd"), ("e", "ff")).map { case (a, b) => RuleKey.of(a, b) }
    assert(Selection.select(keys, RandDir, 1) == Selection.select(keys, RandDir, 1))
  }

  test("empty input") {
    assert(Selection.select(Seq.empty, BestDir) == Vector.empty)
  }

  test("duplicate keys are deduplicated") {
    val keys = Seq(RuleKey.of("a", "bb"), RuleKey.of("bb", "a"))
    assert(Selection.select(keys, LongDir).size == 1)
  }
}
