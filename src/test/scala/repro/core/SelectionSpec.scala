package repro.core

import repro.SparkSpec
import repro.data.ConsolidationGen

/** Spark only generates the rule keys of the differential cases. */
class SelectionSpec extends SparkSpec {
  import SelectionSpec.reference

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

  test("a case-2 tie keeps the direction with the smaller structure key; RevDir the other") {
    // equal lhs lengths; "1" -> "a" has key d\u0001l, "a" -> "1" has l\u0001d
    assert(sel(Seq(("a", "1")), BestDir) == Vector(Trans("1", "a")))
    assert(sel(Seq(("a", "1")), RevDir) == Vector(Trans("a", "1")))
  }

  test("BestDir and RevDir equal the two-direction reference on generated rule keys") {
    val inputs = Seq(
      "AuthorList"   -> ConsolidationGen.authorList(spark, sf = 0.1, seed = 5),
      "Address"      -> ConsolidationGen.address(spark, sf = 0.1, seed = 5),
      "JournalTitle" -> ConsolidationGen.journalTitle(spark, sf = 0.05, seed = 5))
    for ((ds, df) <- inputs) {
      val keys = RuleGen.generate(spark, df.select("cluster", "recordId", "value")).keys.toSeq
      assert(keys.size > 100, ds)
      for ((m, reverse) <- Seq(BestDir -> false, RevDir -> true))
        assert(Selection.select(keys, m) == reference(keys, reverse), s"$ds $m")
    }
  }

  test("BestDir and RevDir equal the two-direction reference on random keys") {
    // \u0000 sorts below the separator \u0001 and is its own single-char term
    val alphabet = "aZ9 .,\u0000\u0001"
    for (seed <- 1 to 20) {
      val rnd = new scala.util.Random(seed)
      def str(): String = Seq.fill(rnd.nextInt(5))(alphabet(rnd.nextInt(alphabet.length))).mkString
      val keys = Seq.fill(200)((str(), str())).collect { case (a, b) if a != b => RuleKey.of(a, b) }
      for ((m, reverse) <- Seq(BestDir -> false, RevDir -> true))
        assert(Selection.select(keys, m) == reference(keys, reverse), s"seed $seed $m")
    }
  }

  test("RandDir is deterministic in the seed") {
    val keys = Seq(("a", "bb"), ("c", "dd"), ("e", "ff")).map { case (a, b) => RuleKey.of(a, b) }
    assert(Selection.select(keys, RandDir) == Selection.select(keys.reverse, RandDir))
  }

  test("empty input") {
    assert(Selection.select(Seq.empty, BestDir) == Vector.empty)
  }

  test("duplicate keys are deduplicated") {
    val keys = Seq(RuleKey.of("a", "bb"), RuleKey.of("bb", "a"))
    assert(Selection.select(keys, LongDir).size == 1)
  }
}

object SelectionSpec {

  /** BestDir (`reverse = false`) and RevDir the long way round through
    * Appendix C: build both directions of every case-2 rule, group them by
    * structure key, and visit the groups in key order, keeping per pair of
    * symmetric groups the one with the longer average lhs (ties: the smaller
    * key).
    */
  def reference(keys: Seq[RuleKey], reverse: Boolean): Vector[Trans] = {
    def longer(k: RuleKey): Trans = if (k.a.length > k.b.length) Trans(k.a, k.b) else Trans(k.b, k.a)
    def avgLhsLen(members: Vector[(RuleKey, Trans)]): Double =
      members.map(_._2.lhs.length).sum.toDouble / members.length

    val sorted         = keys.distinct.sortBy(k => (k.a, k.b)).toVector
    val (case1, case2) = sorted.partition(k => Structure.of(k.a) == Structure.of(k.b))
    val out            = Vector.newBuilder[Trans]
    out ++= case1.map(k => if (reverse) longer(k).reverse else longer(k))

    val byStruct = case2.flatMap(k => Vector((k, Trans(k.a, k.b)), (k, Trans(k.b, k.a)))).groupBy(_._2.structKey)
    val kept     = scala.collection.mutable.HashSet.empty[String]
    for ((sk, members) <- byStruct.toVector.sortBy(_._1)) {
      val partner = members.head._2.reverse.structKey
      if (!kept.contains(sk) && !kept.contains(partner)) {
        val avgSelf    = avgLhsLen(members)
        val avgPartner = avgLhsLen(byStruct(partner))
        val winner =
          if (avgSelf > avgPartner) sk
          else if (avgPartner > avgSelf) partner
          else math.Ordering.String.min(sk, partner)
        kept += (if (reverse) (if (winner == sk) partner else sk) else winner)
      }
    }
    for ((sk, members) <- byStruct if kept.contains(sk); (_, tr) <- members) out += tr
    out.result().sortBy(tr => (tr.lhs, tr.rhs))
  }
}
