package repro.core

import repro.SparkSpec
import repro.core.lang.{ConstantStr, Label, PathCheck}
import repro.data.{ConsolidationGen, Judges}
import scala.collection.mutable

/** Local (single-cluster) tests of Section 6 application semantics. Spark
  * only generates and groups the inputs of the differential cases.
  */
class ApplierSpec extends SparkSpec {
  import ApplierSpec.reference

  /** Build decisions by running selection + grouping-free (NoAgg) confirm. */
  private def noAggDecisions(values: Seq[String], approve: (String, String) => Boolean,
                             cluster: Long = 1): (Vector[Decision], Set[String]) = {
    val catalog = Rules.clusterRules(cluster, values)
    val trans   = Selection.select(catalog.keys.toSeq, BestDir)
    val groups  = trans.zipWithIndex.map { case (tr, i) =>
      RuleGroup(s"g$i", None, None, Vector(tr))
    }
    val ranked = Grouping.rank(groups, catalog)
    val judge  = new RuleJudge { def isTrue(a: String, b: String) = approve(a, b) }
    val (ds, _) = Expert.confirmAll(ranked, catalog, judge, budget = 100, method = NoAgg)
    (ds, catalog.keysIterator.map(Applier.keyString).toSet)
  }

  test("single approved rule merges two variants") {
    val values = Seq("9 St", "9th St")
    val (ds, keys) = noAggDecisions(values, (a, b) => Set(a, b) == Set("9", "9th"))
    val out = Applier.applyCluster(1, Map(1L -> "9 St", 2L -> "9th St"), ds, keys)
    assert(out(1L) == out(2L))
  }

  test("no decisions leaves values unchanged") {
    val records = Map(1L -> "a b", 2L -> "a c")
    assert(Applier.applyCluster(1, records, Vector.empty, _ => true) == records)
  }

  test("Section 6 H&M example: chained rule maintenance") {
    // cluster {H & M, H and M, H &amp; M}; approving & <-> and triggers
    // re-derivation so the updated value can merge with the third variant.
    val values = Seq("H & M", "H and M", "H &amp; M")
    val (ds, keys) = noAggDecisions(values, (a, b) =>
      Set(Set("&", "and"), Set("&", "&amp;"), Set("and", "&amp;")).contains(Set(a, b)))
    val records = Map(1L -> "H & M", 2L -> "H and M", 3L -> "H &amp; M")
    val out = Applier.applyCluster(1, records, ds, keys)
    assert(out.values.toSet.size == 1, out)
  }

  test("Table 1 -> Table 2: Dewitt addresses converge") {
    val v1 = "9 St, 02141 Wisconsin"
    val v2 = "9th St, 02141 WI"
    val v3 = "9 Street, 02141 WI"
    val judge: (String, String) => Boolean = (a, b) => {
      val ok = Set(Set("9", "9th"), Set("St,", "Street,"), Set("Wisconsin", "WI"),
        Set("9 St,", "9th Street,"), Set("9 Street,", "9th St,"), Set("9 St,", "9 Street,"),
        Set(v1, v2), Set(v1, v3), Set(v2, v3))
      ok.contains(Set(a, b))
    }
    val (ds, keys) = noAggDecisions(Seq(v1, v2, v3), judge)
    val out = Applier.applyCluster(1, Map(1L -> v1, 2L -> v2, 3L -> v3), ds, keys)
    assert(out.values.toSet.size == 1, out)
  }

  test("unapproved rules are not applied") {
    val values = Seq("9 St", "9th Ave")
    val (ds, keys) = noAggDecisions(values, (_, _) => false)
    assert(ds.isEmpty)
    val records = Map(1L -> "9 St", 2L -> "9th Ave")
    assert(Applier.applyCluster(1, records, ds, keys) == records)
  }

  test("adoption: a newly generated rule joins an approved program group") {
    // Decision: a BothAgg group whose program is ConstantStr("st") with
    // struct l -> l; rule street <-> st was a member. After some other change
    // creates a new rule strasse <-> st (not in the initial catalog), it must
    // be adopted and applied in the same direction.
    val path: Vector[Label] = Vector(ConstantStr("st"))
    val d = Decision(
      rank = 0, method = BothAgg,
      structKey = Some(Structure.ofTransformation("street", "st")),
      path = Some(path),
      memberDirs = Map(RuleKey.of("street", "st") -> (Trans("street", "st").lhs == RuleKey.of("street", "st").a)),
      forward = true)
    val records = Map(1L -> "strasse x", 2L -> "st x")
    // initialKeys does NOT contain strasse<->st, so adoption is allowed
    val out = Applier.applyCluster(1, records, Vector(d), _ => false)
    assert(out(1L) == "st x")
    assert(out(2L) == "st x")
  }

  test("initial-catalog rules are not adopted by other groups") {
    val path: Vector[Label] = Vector(ConstantStr("st"))
    val d = Decision(0, BothAgg,
      Some(Structure.ofTransformation("street", "st")), Some(path),
      memberDirs = Map.empty, forward = true)
    val records = Map(1L -> "strasse x", 2L -> "st x")
    val initialKeys = Set(Applier.keyString(RuleKey.of("strasse", "st")))
    val out = Applier.applyCluster(1, records, Vector(d), initialKeys.contains)
    assert(out == records) // key existed initially and was not a member
  }

  test("keyString is injective when a side holds \\u0001") {
    assert(Applier.keyString(RuleKey("x\u0001y", "z")) != Applier.keyString(RuleKey("x", "y\u0001z")))
  }

  test("a new rule whose sides hold \\u0001 is adopted") {
    // The new rule a\u0001st <-> a\u0001strasse is not in the initial catalog.
    // Joining sides with \u0001 would give it the same key string as the
    // initial rule a <-> st\u0001a\u0001strasse and block its adoption.
    val (st, strasse) = ("a\u0001st", "a\u0001strasse")
    val d = Decision(0, StructAgg, Some(Structure.ofTransformation(strasse, st)), None,
      memberDirs = Map.empty, forward = true)
    val initialKeys = Set(Applier.keyString(RuleKey("a", "st\u0001a\u0001strasse")))
    val out = Applier.applyCluster(1, Map(1L -> strasse, 2L -> st), Vector(d), initialKeys.contains)
    assert(out.values.toSet.size == 1, out)
  }

  test("reverse direction replaces rhs with lhs") {
    val values = Seq("9 St", "9th St")
    val catalog = Rules.clusterRules(1, values)
    val key = RuleKey.of("9", "9th")
    val d = Decision(0, NoAgg, None, None,
      memberDirs = Map(key -> true), forward = false) // replace "9th" with "9"
    val keys = catalog.keysIterator.map(Applier.keyString).toSet
    val out = Applier.applyCluster(1, Map(1L -> "9 St", 2L -> "9th St"), Vector(d), keys)
    assert(out.values.toSet == Set("9 St"))
  }

  test("termination on potentially cyclic rules") {
    // a <-> b approved in both orientations as separate decisions would
    // oscillate; passes/apps caps must terminate.
    val key = RuleKey.of("aa", "bb")
    val d1 = Decision(0, NoAgg, None, None, Map(key -> true), forward = true)
    val d2 = Decision(1, NoAgg, None, None, Map(key -> true), forward = false)
    val records = Map(1L -> "aa x", 2L -> "bb x")
    val out = Applier.applyCluster(1, records, Vector(d1, d2), _ => true)
    assert(out.size == 2) // terminated
    assert(out == reference(1, records, Vector(d1, d2), _ => true))
  }

  test("two member rules of one decision apply: the lesser rule key goes first") {
    // p <-> s and q <-> r both apply to "p q"; p <-> s sorts first, and once
    // "p q" became "s q" no current pair has the rule q <-> r left.
    val d = Decision(0, NoAgg, None, None,
      memberDirs = Map(RuleKey.of("q", "r") -> true, RuleKey.of("p", "s") -> true), forward = true)
    val records = Map(1L -> "p q", 2L -> "p r", 3L -> "s q")
    val out = Applier.applyCluster(1, records, Vector(d), _ => true)
    assert(out == Map(1L -> "s q", 2L -> "p r", 3L -> "s q"))
    assert(out == reference(1, records, Vector(d), _ => true))
  }

  test("a rule that only a replacement creates is applied by a later decision") {
    // "aa x" and "bb z" share no token, and no current pair aligns x with z.
    // Rank 0 rewrites "aa x" to "bb x", whose pair with "bb z" is the only
    // source of rank 1's member x <-> z.
    val xz = RuleKey.of("x", "z")
    assert(!Rules.clusterRules(1, Seq("aa x", "bb x y", "bb z")).contains(xz))
    val d0 = Decision(0, NoAgg, None, None, Map(RuleKey.of("aa", "bb") -> true), forward = true)
    val d1 = Decision(1, NoAgg, None, None, Map(xz -> true), forward = true)
    val records = Map(1L -> "aa x", 2L -> "bb x y", 3L -> "bb z")
    val out = Applier.applyCluster(1, records, Vector(d0, d1), _ => true)
    assert(out == Map(1L -> "bb z", 2L -> "bb x y", 3L -> "bb z"))
    assert(out == reference(1, records, Vector(d0, d1), _ => true))
  }

  test("a replacement onto an existing value drops the rules of the old value") {
    // "9 St" becomes the existing "9th St", so the only pair that aligned
    // St with Ave is gone and rank 1 has nothing left to replace.
    val d0 = Decision(0, NoAgg, None, None, Map(RuleKey.of("9", "9th") -> true), forward = true)
    val d1 = Decision(1, NoAgg, None, None, Map(RuleKey.of("Ave", "St") -> true), forward = true)
    val records = Map(1L -> "9 St", 2L -> "9th St", 3L -> "9 Ave")
    val out = Applier.applyCluster(1, records, Vector(d0, d1), _ => true)
    assert(out == Map(1L -> "9th St", 2L -> "9th St", 3L -> "9 Ave"))
    assert(out == reference(1, records, Vector(d0, d1), _ => true))
  }

  private lazy val generated = Seq(
    ("AuthorList", ConsolidationGen.authorList(spark, sf = 0.03, seed = 5), Judges.authorList),
    ("Address", ConsolidationGen.address(spark, sf = 0.03, seed = 5), Judges.address),
    ("JournalTitle", ConsolidationGen.journalTitle(spark, sf = 0.01, seed = 5), Judges.journalTitle))

  for (method <- Seq(NoAgg, StructAgg, TransAgg, BothAgg))
    test(s"$method: applyCluster equals the merge-all-rules reference on generated clusters") {
      import spark.implicits._
      var changed = 0
      for ((ds, clusters, judge) <- generated) {
        val cfg      = PipelineConfig(agg = method, pivot = GroupingGoldenSpec.pivotConfig(ds))
        val prepared = Pipeline.prepare(spark, clusters, cfg)
        val (decisions, _) = Expert.confirmAll(prepared.ranked, prepared.catalog, judge, cfg.budget, method)
        val initialKeys = prepared.catalog.keysIterator.map(Applier.keyString).toSet
        val rows = clusters.select("cluster", "recordId", "value").as[(Long, Long, String)].collect()
        for ((cid, rs) <- rows.groupBy(_._1)) {
          val records = rs.map(r => r._2 -> r._3).toMap
          val out     = Applier.applyCluster(cid, records, decisions, initialKeys.contains)
          assert(out == reference(cid, records, decisions, initialKeys.contains), s"$ds cluster $cid")
          changed += records.count { case (rid, v) => out(rid) != v }
        }
      }
      assert(changed > 0)
    }

  test("NoAgg: applyCluster gives the same output whatever the initial keys") {
    import spark.implicits._
    val (_, clusters, judge) = generated.head
    val cfg      = PipelineConfig(agg = NoAgg, pivot = GroupingGoldenSpec.pivotConfig("AuthorList"))
    val prepared = Pipeline.prepare(spark, clusters, cfg)
    val (decisions, _) = Expert.confirmAll(prepared.ranked, prepared.catalog, judge, cfg.budget, NoAgg)
    val initialKeys = prepared.catalog.keysIterator.map(Applier.keyString).toSet
    var changed = 0
    val rows = clusters.select("cluster", "recordId", "value").as[(Long, Long, String)].collect()
    for ((cid, rs) <- rows.groupBy(_._1)) {
      val records = rs.map(r => r._2 -> r._3).toMap
      val out     = Applier.applyCluster(cid, records, decisions, initialKeys.contains)
      assert(Applier.applyCluster(cid, records, decisions, _ => true) == out, s"cluster $cid")
      assert(Applier.applyCluster(cid, records, decisions, _ => false) == out, s"cluster $cid")
      changed += records.count { case (rid, v) => out(rid) != v }
    }
    assert(changed > 0)
  }

  test("singleton cluster untouched") {
    val records = Map(1L -> "lonely")
    val d = Decision(0, NoAgg, None, None, Map(RuleKey.of("a", "b") -> true), forward = true)
    assert(Applier.applyCluster(1, records, Vector(d), _ => true) == records)
  }
}

object ApplierSpec {

  /** `Applier.applyCluster` by its first specification: before every
    * replacement, merge the rules of every current value pair, scan them in
    * rule-key order and each rule's replaceable occurrences in (value,
    * position) order, and apply the first replacement that changes a value.
    */
  def reference(cluster: Long, records: Map[Long, String], decisions: Seq[Decision],
                initialKeys: String => Boolean): Map[Long, String] = {
    if (decisions.isEmpty || records.size < 2) return records
    val state = mutable.HashMap.from(records)

    def direction(key: RuleKey, d: Decision): Option[Boolean] = {
      def matches(lhs: String, rhs: String): Boolean = d.method match {
        case NoAgg     => false
        case StructAgg => d.structKey.contains(Structure.ofTransformation(lhs, rhs))
        case TransAgg  => d.path.exists(p => PathCheck.consistent(p, lhs, rhs))
        case BothAgg =>
          d.structKey.contains(Structure.ofTransformation(lhs, rhs)) &&
            d.path.exists(p => PathCheck.consistent(p, lhs, rhs))
      }
      d.memberDirs.get(key).orElse {
        if (initialKeys(Applier.keyString(key))) None
        else if (matches(key.a, key.b)) Some(true)
        else if (matches(key.b, key.a)) Some(false)
        else None
      }
    }

    def firstHit(d: Decision): Option[(String, String)] = {
      val rules = Rules.merge(Rules.valuePairs(state.values).flatMap { case (v1, v2) =>
        Rules.pairRules(cluster, v1, v2)
      })
      rules.values.toVector.sortBy(r => (r.key.a, r.key.b)).iterator.flatMap { rule =>
        direction(rule.key, d).iterator.flatMap { dirAIsLhs =>
          val replaceA = if (d.forward) dirAIsLhs else !dirAIsLhs
          val repl     = if (replaceA) rule.key.b else rule.key.a
          (if (replaceA) rule.occA else rule.occB).toVector.sortBy(o => (o.value, o.p)).iterator
            .map(o => (o.value, Tokens.applyReplacement(o.value, o.p, o.q, repl)))
            .find { case (v, nv) => nv != v }
        }
      }.nextOption()
    }

    var pass    = 0
    var changed = true
    while (changed && pass < Applier.MaxPasses) {
      changed = false
      for (d <- decisions.sortBy(_.rank)) {
        var apps = 0
        var hit  = firstHit(d)
        while (hit.isDefined) {
          val (v, nv) = hit.get
          for ((rid, x) <- state if x == v) state(rid) = nv
          changed = true
          apps += 1
          hit = if (apps < Applier.MaxAppsPerPass) firstHit(d) else None
        }
      }
      pass += 1
    }
    state.toMap
  }
}
