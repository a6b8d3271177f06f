package perfbench

import repro.core._
import repro.core.lang._
import repro.data.GenRecord

/** Output checks of one pass. Each check is computed apart from the program
  * or states a property the method must have, and returns `None` when the
  * output passes or `Some(reason)` when it does not. Every check also has a
  * self-test (`selfTests`): a deliberately broken copy of a real output that
  * the check must reject.
  */
object Checks {

  type Result = Option[String]

  private def fail(msg: String): Result = Some(msg)
  private val Ok: Result = None
  private def byLhsRhs(ts: Vector[Trans]): Vector[Trans] = ts.sortBy(t => (t.lhs, t.rhs))

  /** Every replacement-set occurrence ⟨v, p, q⟩ of a rule spells its side
    * inside a value of its own cluster, and the two sides differ.
    */
  def occurrences(catalog: Map[RuleKey, MatchingRule],
                  valuesByCluster: Map[Long, Vector[String]]): Result = {
    val values = valuesByCluster.view.mapValues(_.toSet).toMap
    def spells(side: String, o: Occ): Boolean =
      values.get(o.cluster).exists(_.contains(o.value)) &&
        o.p >= 1 && o.q >= o.p - 1 && o.q <= o.value.length &&
        o.value.substring(o.p - 1, o.q) == side
    catalog.valuesIterator
      .collectFirst {
        case r if r.key.a == r.key.b => s"rule ${r.key} has equal sides"
        case r if r.occA.isEmpty || r.occB.isEmpty => s"rule ${r.key} lacks a replacement set"
        case r if !r.occA.forall(spells(r.key.a, _)) || !r.occB.forall(spells(r.key.b, _)) =>
          s"rule ${r.key} has an occurrence that does not spell its side"
      }
  }

  /** Selection keeps exactly one direction per rule key. */
  def oneDirection(catalog: Map[RuleKey, MatchingRule], trans: Vector[Trans]): Result = {
    val keys = trans.map(t => RuleKey.of(t.lhs, t.rhs))
    if (keys.distinct.size != keys.size) fail("a rule key is selected in both directions")
    else if (keys.toSet != catalog.keySet) fail("selected keys differ from the catalog's")
    else Ok
  }

  /** The groups partition the selected transformations. */
  def partition(trans: Vector[Trans], groups: Vector[RuleGroup]): Result = {
    val members = groups.flatMap(_.members)
    if (groups.exists(_.members.isEmpty)) fail("an empty group")
    else if (members.size != members.distinct.size) fail("a transformation is in two groups")
    else if (members.toSet != trans.toSet) fail("group members differ from the selected transformations")
    else Ok
  }

  /** Terms of the paper's structure (Section 3): runs of [0-9], [a-z], [A-Z]
    * and whitespace, and any other single character.
    */
  private val TermRe = "(?s)[0-9]+|[a-z]+|[A-Z]+|\\s+|.".r

  def structure(s: String): Vector[String] =
    TermRe.findAllIn(s).map { t =>
      val c = t.head
      if (c >= '0' && c <= '9') "Td"
      else if (c >= 'a' && c <= 'z') "Tl"
      else if (c >= 'A' && c <= 'Z') "TC"
      else if (Character.isWhitespace(c)) "Tb"
      else "'" + t + "'"
    }.toVector

  private def structureOf(t: Trans): (Vector[String], Vector[String]) =
    (structure(t.lhs), structure(t.rhs))

  /** Every group holds transformations of a single structure (BothAgg, and
    * trivially NoAgg).
    */
  def homogeneous(groups: Vector[RuleGroup]): Result =
    groups.collectFirst {
      case g if g.members.map(structureOf).distinct.size > 1 => s"group ${g.id} mixes structures"
    }

  /** Every member of a program group is expressed by the group's path. */
  def pathsExpress(groups: Vector[RuleGroup]): Result =
    groups.collectFirst {
      case g if g.path.isEmpty => s"group ${g.id} has no path"
      case g if !g.members.forall(m => Programs.expresses(g.path.get, m.lhs, m.rhs)) =>
        s"group ${g.id} has a member its path does not express"
    }

  /** Spark's groups equal `Pivot.groupByPrograms` run in-process per pool. */
  def matchesInProcess(groups: Vector[RuleGroup], local: Vector[Kernels.PoolRun]): Result = {
    val spark = groups.map(g => (g.structKey.getOrElse(""), g.path.getOrElse(Vector.empty), byLhsRhs(g.members)))
    val inProcess = local.flatMap(r => r.groups.map(pg => (r.key, pg.path, byLhsRhs(pg.members))))
    if (spark.size != inProcess.size || spark.toSet != inProcess.toSet)
      fail(s"${spark.size} Spark groups differ from ${inProcess.size} in-process groups")
    else Ok
  }

  /** The updated table keeps exactly the input's (cluster, recordId) rows. */
  def keepsRows(records: Vector[GenRecord], updated: Vector[(Long, Long, String)]): Result = {
    val in  = records.map(r => (r.cluster, r.recordId))
    val out = updated.map(r => (r._1, r._2))
    if (out.size != in.size || out.distinct.size != out.size || out.toSet != in.toSet)
      fail(s"${out.size} updated rows do not match the ${in.size} input rows")
    else Ok
  }

  /** Plain majority vote per cluster; NULL when the top count is tied. */
  def majority(updated: Vector[(Long, Long, String)]): Map[Long, String] =
    updated.groupBy(_._1).map { case (c, rows) =>
      val counts  = rows.groupMapReduce(_._3)(_ => 1)(_ + _)
      val top     = counts.values.max
      val winners = counts.collect { case (v, n) if n == top => v }
      c -> (if (winners.size == 1) winners.head else null)
    }

  def goldens(updated: Vector[(Long, Long, String)], goldens: Vector[(Long, String)]): Result = {
    val expected = majority(updated)
    if (goldens.size != expected.size || goldens.toMap != expected)
      fail("golden values differ from a plain majority vote")
    else Ok
  }

  /** A pass's outputs are identical to the first pass's. */
  def sameOutputs(first: Seq[Int], pass: Seq[Int]): Result =
    if (first != pass) fail("outputs differ from the first pass") else Ok

  /** Clusters whose golden value is correct: not NULL, and the majority
    * entity of the records holding it is the cluster's majority entity (ties
    * go to the smallest entity id, as in `Metrics.mcPrecision`).
    */
  def goldenCorrect(records: Vector[GenRecord], updated: Vector[(Long, Long, String)],
                    goldens: Vector[(Long, String)]): Int = {
    val entityOf  = records.iterator.map(r => r.recordId -> r.entityId).toMap
    val byCluster = updated.groupBy(_._1)
    def majorityEntity(rows: Vector[(Long, Long, String)]): Long = {
      val counts = rows.groupMapReduce(r => entityOf(r._2))(_ => 1)(_ + _)
      val top    = counts.values.max
      counts.collect { case (e, n) if n == top => e }.min
    }
    goldens.count { case (c, g) =>
      g != null && {
        val rows = byCluster(c)
        majorityEntity(rows.filter(_._3 == g)) == majorityEntity(rows)
      }
    }
  }

  /** All checks that apply to the workload, on one pass's outputs. */
  def all(w: Workload, input: Input, p: PassResult, local: Vector[Kernels.PoolRun]): Vector[(String, Result)] = {
    Vector(
      Some("occurrences-spell-sides" -> occurrences(p.catalog, input.valuesByCluster)),
      Some("one-direction-per-rule" -> oneDirection(p.catalog, p.trans)),
      Some("groups-partition-transformations" -> partition(p.trans, p.groups)),
      Some("groups-homogeneous-in-structure" -> homogeneous(p.groups)),
      Option.when(w.agg == BothAgg)("paths-express-members" -> pathsExpress(p.groups)),
      Option.when(w.agg == BothAgg)("spark-equals-in-process-pools" -> matchesInProcess(p.groups, local)),
      Some("updated-keeps-input-rows" -> keepsRows(input.records, p.updated)),
      Some("goldens-equal-majority-vote" -> goldens(p.updated, p.goldens)),
    ).flatten
  }

  /** The same checks on corrupted copies of `p`'s outputs; each must fail. */
  def selfTests(w: Workload, input: Input, p: PassResult, local: Vector[Kernels.PoolRun]): Vector[(String, Result)] = {
    val rule = p.catalog.valuesIterator.minBy(r => (r.key.a, r.key.b))
    val badCatalog = {
      val o = rule.occA.minBy(o => (o.cluster, o.value, o.p))
      val moved = if (o.q < o.value.length) o.copy(q = o.q + 1) else o.copy(value = o.value + "#")
      p.catalog.updated(rule.key, rule.copy(occA = rule.occA - o + moved))
    }
    val head = p.groups.head
    val droppedMember = head.copy(members = head.members.tail)
    val withoutOne = if (droppedMember.members.isEmpty) p.groups.tail else droppedMember +: p.groups.tail
    val mixed = {
      val s = structureOf(head.members.head)
      val other = p.trans.find(t => structureOf(t) != s).get
      head.copy(members = head.members :+ other) +: p.groups.tail.map(g => g.copy(members = g.members.filterNot(_ == other)))
    }
    val unexpressed = head.copy(path = Some(Vector(ConstantStr(head.members.head.rhs + "\u0007")))) +: p.groups.tail
    val flipped = {
      val (c, g) = p.goldens.head
      val other  = if (g == null) p.updated.find(_._1 == c).get._3 else null
      (c, other) +: p.goldens.tail
    }
    Vector(
      Some("occurrences-spell-sides" -> occurrences(badCatalog, input.valuesByCluster)),
      Some("one-direction-per-rule" -> oneDirection(p.catalog, p.trans :+ p.trans.head.reverse)),
      Some("groups-partition-transformations" -> partition(p.trans, withoutOne)),
      Some("groups-homogeneous-in-structure" -> homogeneous(mixed)),
      Option.when(w.agg == BothAgg)("paths-express-members" -> pathsExpress(unexpressed)),
      Option.when(w.agg == BothAgg)("spark-equals-in-process-pools" -> matchesInProcess(withoutOne, local)),
      Some("updated-keeps-input-rows" -> keepsRows(input.records, p.updated.tail)),
      Some("goldens-equal-majority-vote" -> goldens(p.updated, flipped)),
      Some("passes-identical" -> sameOutputs(p.digest, p.copy(goldens = flipped).digest)),
    ).flatten
  }
}

/** An interpreter of the program language (Section 4.1), written from the
  * paper's definitions, to check that a path expresses a transformation.
  */
object Programs {

  /** Matches of `t` in `s` as 1-based half-open spans: maximal runs for the
    * regex terms, every occurrence (overlaps included) for constant terms.
    */
  private def matches(t: Term, s: String): Vector[(Int, Int)] = t match {
    case TStr(x) =>
      if (x.isEmpty) Vector.empty
      else (0 to s.length - x.length).filter(i => s.startsWith(x, i)).map(i => (i + 1, i + 1 + x.length)).toVector
    case _ =>
      val re = t match {
        case Td => "[0-9]+"; case Tl => "[a-z]+"; case Tc => "[A-Z]+"; case Tb => "\\s+"
        case other => throw new IllegalArgumentException(s"unknown term $other")
      }
      re.r.findAllMatchIn(s).map(m => (m.start + 1, m.end + 1)).toVector
  }

  private def kth(t: Term, k: Int, s: String): Option[(Int, Int)] = {
    val ms  = matches(t, s)
    val idx = if (k > 0) k else ms.length + 1 + k
    if (k == 0 || idx < 1 || idx > ms.length) None else Some(ms(idx - 1))
  }

  private def position(p: Pos, s: String): Option[Int] = p match {
    case ConstPos(k) =>
      val x = if (k > 0) k else s.length + 1 + k
      Option.when(k != 0 && x >= 1 && x <= s.length + 1)(x)
    case MatchPos(t, k, dir) => kth(t, k, s).map { case (b, e) => if (dir == 'B') b else e }
  }

  /** Every string `label` can output on input `s`. */
  def outputs(label: Label, s: String): Seq[String] = label match {
    case ConstantStr(x) => Seq(x)
    case SubStrF(l, r) =>
      (for (a <- position(l, s); b <- position(r, s) if a < b) yield s.substring(a - 1, b - 1)).toSeq
    case PrefixF(t, k) =>
      kth(t, k, s).toSeq.flatMap { case (b, e) => (b + 1 to e).map(j => s.substring(b - 1, j - 1)) }
    case SuffixF(t, k) =>
      kth(t, k, s).toSeq.flatMap { case (b, e) => (b until e).map(i => s.substring(i - 1, e - 1)) }
  }

  /** Whether concatenating one output of each label can give exactly `t`. */
  def expresses(path: Seq[Label], s: String, t: String): Boolean = {
    var at = Set(0)
    for (label <- path) {
      val outs = outputs(label, s)
      at = for (i <- at; o <- outs if t.startsWith(o, i)) yield i + o.length
    }
    at.contains(t.length)
  }
}
