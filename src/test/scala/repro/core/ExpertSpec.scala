package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ExpertSpec extends AnyFunSuite {

  private object SubstringJudge extends RuleJudge {
    // toy judge: rule is true iff one side is a prefix of the other
    def isTrue(a: String, b: String): Boolean = a.startsWith(b) || b.startsWith(a)
  }

  /** Rule a<->b where `a` occurs `na` times and `b` occurs `nb` times. */
  private def mkRule(a: String, b: String, na: Int, nb: Int): MatchingRule = {
    val key = RuleKey.of(a, b)
    val (ca, cb) = if (key.a == a) (na, nb) else (nb, na)
    MatchingRule(key,
      (1 to ca).map(i => Occ(i, s"${key.a} x$i", 1, key.a.length)).toSet,
      (1 to cb).map(i => Occ(i, s"${key.b} y$i", 1, key.b.length)).toSet)
  }

  test("approves a group whose sampled rules are all true") {
    val g = RuleGroup("g", None, None, Vector(Trans("street", "st"), Trans("strasse", "str")))
    val catalog = Map(
      RuleKey.of("street", "st")   -> mkRule("street", "st", 3, 1),
      RuleKey.of("strasse", "str") -> mkRule("strasse", "str", 2, 1))
    assert(Expert.confirm(g, catalog, SubstringJudge).isDefined)
  }

  test("rejects a group containing a false rule (small groups are fully read)") {
    val g = RuleGroup("g", None, None, Vector(Trans("street", "st"), Trans("street", "xx")))
    assert(Expert.confirm(g, Map.empty, SubstringJudge).isEmpty)
  }

  test("a false rule beyond the sample can slip through (StructAgg phenomenon)") {
    val trueMembers  = (1 to 50).map(i => Trans(s"abc$i", "abc")).toVector
    val falseMember  = Trans("qqq", "zzz")
    // the sample's seed mixes in the group id; a sample of 5 rarely holds
    // the single false rule among 51
    val approved = (1 to 20).count { i =>
      val g = RuleGroup(s"g$i", None, None, trueMembers :+ falseMember)
      Expert.confirm(g, Map.empty, SubstringJudge).isDefined
    }
    assert(approved > 10, s"approved $approved/20 groups")
  }

  test("a group of SampleSize members is read whole") {
    // the false rule sits last, where only a full read finds it
    val members = (1 until Expert.SampleSize).map(i => Trans(s"abc$i", "abc")).toVector :+ Trans("qqq", "zzz")
    for (i <- 1 to 20)
      assert(Expert.confirm(RuleGroup(s"g$i", None, None, members), Map.empty, SubstringJudge).isEmpty)
  }

  test("direction maximizes applied occurrences") {
    // lhs occurrences (forward) outnumber rhs: expect forward = true
    val r = mkRule("street", "st", 5, 2)
    val g = RuleGroup("g", None, None, Vector(Trans("street", "st")))
    val d = Expert.confirm(g, Map(r.key -> r), SubstringJudge)
    assert(d.contains(true))
    // reversed occurrence counts flip the direction
    val r2 = mkRule("street", "st", 2, 5)
    val d2 = Expert.confirm(g, Map(r2.key -> r2), SubstringJudge)
    assert(d2.contains(false))
  }

  test("confirmAll respects the budget and ranks") {
    val groups = (1 to 10).map(i =>
      RuleGroup(s"g$i", None, None, Vector(Trans(s"aaa$i", "aaa")))).toVector
    val (decisions, shown) = Expert.confirmAll(groups, Map.empty, SubstringJudge,
      budget = 4, method = NoAgg)
    assert(shown == 4)
    assert(decisions.size == 4) // all true under the substring judge
    assert(decisions.map(_.rank) == Vector(0, 1, 2, 3))
  }

  test("confirmAll rejects a negative budget") {
    val groups = Vector(RuleGroup("g", None, None, Vector(Trans("aaa1", "aaa"))))
    intercept[IllegalArgumentException](Expert.confirmAll(groups, Map.empty, SubstringJudge, budget = -1, method = NoAgg))
  }

  test("confirmAll records member directions relative to canonical keys") {
    val g = RuleGroup("g", None, None, Vector(Trans("zz", "aa")))
    val (ds, _) = Expert.confirmAll(Vector(g), Map.empty,
      new RuleJudge { def isTrue(a: String, b: String) = true }, 1, NoAgg)
    // canonical key is (aa, zz); chosen lhs was zz, so memberDirs = false
    assert(ds.head.memberDirs == Map(RuleKey("aa", "zz") -> false))
  }

  test("deterministic in the seed") {
    val g = RuleGroup("g", None, None,
      (1 to 30).map(i => Trans(s"v$i", if (i % 7 == 0) "zz" else s"v")).toVector)
    val a = Expert.confirm(g, Map.empty, SubstringJudge)
    val b = Expert.confirm(g, Map.empty, SubstringJudge)
    assert(a == b)
  }
}
