package repro.core

/** The oracle standing in for the paper's human expert: decides whether a
  * single matching rule `a ↔ b` is true (the two sides denote the same
  * content). Dataset-specific implementations live in `repro.data.Judges`.
  */
trait RuleJudge extends Serializable {
  def isTrue(a: String, b: String): Boolean
}

/** An approved rule group ready to be applied (Step 5 / Section 6):
  * `forward = true` means "replace each member's lhs occurrences with its
  * rhs", `false` the other way around. `memberDirs` maps each member rule key
  * to whether its chosen transformation was `a → b` (true) or `b → a`.
  */
final case class Decision(
    rank: Int,
    method: AggMethod,
    structKey: Option[String],
    path: Option[Vector[lang.Label]],
    memberDirs: Map[RuleKey, Boolean],
    forward: Boolean,
) {

  /** Whether new rules (keys outside the initial catalog) may join this
    * group; a NoAgg group holds exactly its member rules.
    */
  def adopts: Boolean = method != NoAgg
}

object Expert {

  /** How many member rules the expert inspects per group; the group is
    * approved iff every inspected rule is true. A bounded sample models the
    * paper's observation that coarse groups (StructAgg) let false rules slip
    * through while NoAgg is exact.
    */
  final val SampleSize = 5

  /** Seed of the sample, mixed with the group id. */
  private final val SampleSeed = 7L

  /** Confirm ranked groups in order, spending the whole budget (Step 5).
    * Returns the approved groups as `Decision`s plus how many groups were
    * shown to the expert.
    */
  def confirmAll(ranked: Seq[RuleGroup], catalog: Map[RuleKey, MatchingRule],
                 judge: RuleJudge, budget: Int, method: AggMethod): (Vector[Decision], Int) = {
    require(budget >= 0, s"budget must be >= 0, got $budget")
    val shown = ranked.take(budget)
    val decisions = Vector.newBuilder[Decision]
    for ((g, idx) <- shown.zipWithIndex) {
      confirm(g, catalog, judge).foreach { fwd =>
        decisions += Decision(
          rank = idx,
          method = method,
          structKey = g.structKey,
          path = g.path,
          memberDirs = g.members.map(m => m.key -> (m.lhs == m.key.a)).toMap,
          forward = fwd,
        )
      }
    }
    (decisions.result(), shown.size)
  }

  /** Inspect one group: sample up to `SampleSize` member rules; approve iff
    * all sampled rules are true. On approval, pick the replacement direction
    * that applies to the most occurrences (the group's aggregate replacement
    * sets decide).
    */
  def confirm(g: RuleGroup, catalog: Map[RuleKey, MatchingRule],
              judge: RuleJudge): Option[Boolean] = {
    val rnd     = new scala.util.Random(SampleSeed ^ g.id.hashCode.toLong)
    val sampled =
      if (g.members.size <= SampleSize) g.members
      else rnd.shuffle(g.members).take(SampleSize)
    val allTrue = sampled.forall(m => judge.isTrue(m.lhs, m.rhs))
    if (!allTrue) None
    else {
      var fwdOccs = 0L
      var revOccs = 0L
      for (m <- g.members; rule <- catalog.get(m.key)) {
        val lhsOccs = if (m.lhs == m.key.a) rule.occA.size else rule.occB.size
        val rhsOccs = if (m.lhs == m.key.a) rule.occB.size else rule.occA.size
        fwdOccs += lhsOccs
        revOccs += rhsOccs
      }
      Some(fwdOccs >= revOccs)
    }
  }
}
