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

  /** Seed of RandDir's coin flips. */
  private final val RandSeed = 42L

  /** Select one directed transformation per rule key, deterministically.
    * RandDir and LongDir follow the sorted rule keys; BestDir and RevDir are
    * sorted by `(lhs, rhs)`.
    */
  def select(keys: Seq[RuleKey], method: DirMethod): Vector[Trans] = {
    val unique = keys.distinct.toVector
    def sorted = unique.sortBy(k => (k.a, k.b))
    method match {
      case RandDir =>
        val rnd = new scala.util.Random(RandSeed)
        sorted.map(k => if (rnd.nextBoolean()) Trans(k.a, k.b) else Trans(k.b, k.a))
      case LongDir => sorted.map(longer)
      // per-structure-pair totals do not depend on the keys' order
      case BestDir => bestDir(unique, reverse = false)
      case RevDir  => bestDir(unique, reverse = true)
    }
  }

  /** The transformation with the longer lhs (ties: lexicographically larger). */
  private def longer(k: RuleKey): Trans =
    if (k.a.length > k.b.length) Trans(k.a, k.b)
    else if (k.b.length > k.a.length) Trans(k.b, k.a)
    else Trans(k.b, k.a) // equal length: a <= b, pick the larger string as lhs

  /** Appendix C. Case 1 (equal side structures): longer lhs. Case 2: per
    * unordered pair of side structures `(x, y)`, `x < y`, keep the direction
    * `x → y` or `y → x` whose average lhs over the pair's rules is longer;
    * both directions count the same rules, so the totals decide. On a tie the
    * direction with the smaller structure key `Structure.ofTransformation`
    * wins. `reverse = true` flips both choices (the RevDir baseline).
    */
  private def bestDir(keys: Vector[RuleKey], reverse: Boolean): Vector[Trans] = {
    val (case1, case2) = keys
      .map(k => (k, Structure.of(k.a), Structure.of(k.b)))
      .partition { case (_, sa, sb) => sa == sb }

    val kept = case2
      .map { case (k, sa, sb) => if (sa < sb) (Trans(k.a, k.b), sa, sb) else (Trans(k.b, k.a), sb, sa) }
      .groupBy { case (_, x, y) => (x, y) }
      .iterator
      .flatMap { case ((x, y), members) =>
        val xy = members.foldLeft(0L)(_ + _._1.lhs.length)
        val yx = members.foldLeft(0L)(_ + _._1.rhs.length)
        // the joined keys, not (x, y): a literal \u0000 term sorts below Sep
        val keepXY =
          if (xy != yx) xy > yx
          else s"$x${Structure.Sep}$y" < s"$y${Structure.Sep}$x"
        members.iterator.map { case (tr, _, _) => if (keepXY != reverse) tr else tr.reverse }
      }

    (case1.iterator.map { case (k, _, _) => if (reverse) longer(k).reverse else longer(k) } ++ kept)
      .toVector
      .sortBy(tr => (tr.lhs, tr.rhs))
  }
}
