package repro.core

/** Direction-selection methods evaluated in Section 7.2. */
sealed trait DirMethod extends Serializable
case object RandDir extends DirMethod
case object LongDir extends DirMethod
case object RevDir  extends DirMethod
case object BestDir extends DirMethod

/** Choosing one transformation `lhs → rhs` per matching rule `lhs ↔ rhs`
  * (Section 5, Appendix C).
  */
object Selection {

  /** Select one directed transformation per rule key. Deterministic given
    * the seed; the output order follows the sorted rule keys.
    */
  def select(keys: Seq[RuleKey], method: DirMethod, seed: Long = 42): Vector[Trans] = {
    val sorted = keys.distinct.sortBy(k => (k.a, k.b)).toVector
    method match {
      case RandDir =>
        val rnd = new scala.util.Random(seed)
        sorted.map(k => if (rnd.nextBoolean()) Trans(k.a, k.b) else Trans(k.b, k.a))
      case LongDir => sorted.map(longer)
      case BestDir => bestDir(sorted, reverse = false)
      case RevDir  => bestDir(sorted, reverse = true)
    }
  }

  /** The transformation with the longer lhs (ties: lexicographically larger). */
  private def longer(k: RuleKey): Trans =
    if (k.a.length > k.b.length) Trans(k.a, k.b)
    else if (k.b.length > k.a.length) Trans(k.b, k.a)
    else Trans(k.b, k.a) // equal length: a <= b, pick the larger string as lhs

  /** Appendix C. Case 1 (equal side structures): longer lhs. Case 2: generate
    * both directions, aggregate by structure, and for each pair of symmetric
    * structure groups keep the group whose average lhs is longer.
    * `reverse = true` flips both choices (the RevDir baseline).
    */
  private def bestDir(keys: Vector[RuleKey], reverse: Boolean): Vector[Trans] = {
    val (case1, case2) = keys.partition(k => Structure.of(k.a) == Structure.of(k.b))

    val out = Vector.newBuilder[Trans]
    out ++= case1.map(k => if (reverse) longer(k).reverse else longer(k))

    // Case 2: both directions, grouped by structure.
    val byStruct: Map[String, Vector[(RuleKey, Trans)]] =
      case2.flatMap { k =>
        Vector((k, Trans(k.a, k.b)), (k, Trans(k.b, k.a)))
      }.groupBy(_._2.structKey)

    val keptStructs = scala.collection.mutable.HashSet.empty[String]
    for ((sk, members) <- byStruct.toVector.sortBy(_._1)) {
      // Members share sk, so their reverses share the partner structure;
      // byStruct(partner) always exists: both directions were generated.
      val partner = members.head._2.reverse.structKey
      if (!keptStructs.contains(sk) && !keptStructs.contains(partner)) {
        val avgSelf    = avgLhsLen(members)
        val avgPartner = avgLhsLen(byStruct(partner))
        val winner =
          if (avgSelf > avgPartner) sk
          else if (avgPartner > avgSelf) partner
          else math.Ordering.String.min(sk, partner)
        keptStructs += (if (reverse) (if (winner == sk) partner else sk) else winner)
      }
    }
    for ((sk, members) <- byStruct if keptStructs.contains(sk); (_, tr) <- members)
      out += tr

    out.result().sortBy(tr => (tr.lhs, tr.rhs))
  }

  private def avgLhsLen(members: Vector[(RuleKey, Trans)]): Double =
    members.map(_._2.lhs.length).sum.toDouble / members.length
}
