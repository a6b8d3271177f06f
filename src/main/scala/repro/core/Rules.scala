package repro.core

/** One occurrence of a rule side: the attribute value it occurs in (within a
  * specific cluster), and the 1-based inclusive span `[p, q]` it occupies
  * (`q = p - 1` denotes an empty span, i.e., an insertion point).
  */
final case class Occ(cluster: Long, value: String, p: Int, q: Int)

/** Canonical undirected key of a matching rule `a ↔ b` with `a <= b`. */
final case class RuleKey(a: String, b: String) {
  require(a <= b, s"RuleKey not canonical: '$a' > '$b'")
}

object RuleKey {
  def of(x: String, y: String): RuleKey = if (x <= y) RuleKey(x, y) else RuleKey(y, x)
}

/** A matching rule `a ↔ b` with its two replacement sets (Section 6):
  * `occA` = occurrences of `a` (the set `L[a → b]`), `occB` = occurrences of `b`.
  */
final case class MatchingRule(key: RuleKey, occA: Set[Occ], occB: Set[Occ]) {

  /** Paper Section 6: the larger replacement-set size. */
  def frequency: Int = math.max(occA.size, occB.size)

  def merge(other: MatchingRule): MatchingRule = {
    require(key == other.key)
    MatchingRule(key, occA ++ other.occA, occB ++ other.occB)
  }
}

/** A directed transformation `lhs → rhs` (Section 2, Step 2). */
final case class Trans(lhs: String, rhs: String) {
  def key: RuleKey = RuleKey.of(lhs, rhs)
  def structKey: String = Structure.ofTransformation(lhs, rhs)
  def reverse: Trans = Trans(rhs, lhs)
}

/** Candidate matching-rule generation by token-level LCS alignment plus
  * whole-value pairs (Section 2, Step 1 / Examples 2.1 and 2.2).
  */
object Rules {

  /** Rules from one pair of attribute values within cluster `cluster`.
    * Returns the rules with their replacement occurrences for this pair.
    */
  def pairRules(cluster: Long, v1: String, v2: String): Vector[MatchingRule] = {
    if (v1 == v2) return Vector.empty
    val t1 = Tokens.tokenize(v1)
    val t2 = Tokens.tokenize(v2)
    val out = Vector.newBuilder[MatchingRule]

    for (((f1, e1), (f2, e2)) <- Lcs.gaps(t1.map(_.text), t2.map(_.text))) {
      val s1 = Tokens.span(v1, t1, f1, e1)
      val s2 = Tokens.span(v2, t2, f2, e2)
      if (s1 != s2) {
        val o1 = occOf(cluster, v1, t1, f1, e1)
        val o2 = occOf(cluster, v2, t2, f2, e2)
        out += mk(s1, o1, s2, o2)
      }
    }
    // Example 2.2: the two whole values also form a candidate rule — but only
    // when they differ from every gap-derived rule trivially covered above
    // (mk/merge dedupes by key anyway).
    out += mk(
      v1, Occ(cluster, v1, 1, v1.length),
      v2, Occ(cluster, v2, 1, v2.length))
    out.result()
  }

  /** All matching rules of a cluster: every unordered pair of distinct values,
    * merged by canonical rule key. NULL values take part in no rule.
    */
  def clusterRules(cluster: Long, values: Seq[String]): Map[RuleKey, MatchingRule] =
    merge(valuePairs(values).flatMap { case (v1, v2) => pairRules(cluster, v1, v2) })

  /** Every unordered pair `(v1, v2)` of distinct non-NULL values, `v1 < v2`,
    * the pairs in sorted order.
    */
  def valuePairs(values: Iterable[String]): Iterator[(String, String)] = {
    val vs = values.iterator.filter(_ != null).toVector.distinct.sorted
    vs.indices.iterator.flatMap(i => ((i + 1) until vs.length).iterator.map(j => (vs(i), vs(j))))
  }

  /** Merge rules by canonical key, uniting their replacement sets: the one
    * merge behind a cluster's rules and the catalog.
    */
  def merge(rules: IterableOnce[MatchingRule]): Map[RuleKey, MatchingRule] = {
    val acc = scala.collection.mutable.HashMap.empty[RuleKey, MatchingRule]
    for (r <- rules.iterator) acc.updateWith(r.key) {
      case Some(prev) => Some(prev.merge(r))
      case None       => Some(r)
    }
    acc.toMap
  }

  private def occOf(cluster: Long, v: String, toks: Vector[Token], from: Int, to: Int): Occ =
    if (from <= to) Occ(cluster, v, toks(from).begin, toks(to).end)
    else if (from < toks.length) Occ(cluster, v, toks(from).begin, toks(from).begin - 1)
    else Occ(cluster, v, v.length + 1, v.length) // insertion at end of value

  private def mk(s1: String, o1: Occ, s2: String, o2: Occ): MatchingRule = {
    val key = RuleKey.of(s1, s2)
    if (key.a == s1) MatchingRule(key, Set(o1), Set(o2))
    else MatchingRule(key, Set(o2), Set(o1))
  }
}
