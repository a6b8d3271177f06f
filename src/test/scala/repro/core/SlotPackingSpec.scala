package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.lang.GraphConfig
import scala.util.Random

/** `Grouping.binPack` deals the pools onto the slots of the grouping stage:
  * each pool once, at most `n` slots, deterministically, and within the
  * longest-processing-time-first bound.
  */
class SlotPackingSpec extends AnyFunSuite {

  private val cfg = GraphConfig()

  /** Pools of random transformations, a few of them overlong or singletons. */
  private def pools(seed: Long): Vector[(String, Seq[Trans], Long)] = {
    val r = new Random(seed)
    def word(max: Int) = Seq.fill(1 + r.nextInt(max))("aB1 .".charAt(r.nextInt(5))).mkString
    Vector.tabulate(5 + r.nextInt(60)) { p =>
      val sideLen = if (r.nextInt(10) == 0) 40 else 12
      val pool    = Vector.fill(1 + r.nextInt(if (r.nextBoolean()) 3 else 40))(Trans(word(sideLen), word(sideLen)))
      (f"pool$p%03d", pool, Grouping.poolCost(pool, cfg))
    }
  }

  test("every pool lands in exactly one of at most n slots, within the LPT bound") {
    for (seed <- 1L to 40L; n <- 1 to 8) {
      val ps    = pools(seed)
      val slots = Grouping.binPack(ps, n)
      assert(slots.size <= n)
      assert(slots.flatten.map(_._1).sorted == ps.map(_._1))
      val cost  = ps.map(p => p._1 -> p._3).toMap
      val loads = slots.map(_.map(p => cost(p._1)).sum)
      assert(loads.max <= ps.map(_._3).sum.toDouble / n + ps.map(_._3).max, s"seed $seed, $n slots")
    }
  }

  test("the packing is deterministic: costliest pool first, ties in input order") {
    for (seed <- 1L to 10L) {
      val ps = pools(seed)
      assert(Grouping.binPack(ps, 4) == Grouping.binPack(ps, 4))
      val rank = ps.sortBy(-_._3).map(_._1).zipWithIndex.toMap
      for (slot <- Grouping.binPack(ps, 4)) assert(slot.map(p => rank(p._1)) == slot.map(p => rank(p._1)).sorted)
    }
  }

  test("poolCost is Σ |lhs|·|rhs|² over the searched members plus one per member") {
    val pool = Seq(Trans("ab", "abc"), Trans("ab", "abc"), Trans("x" * 31, "y"), Trans("abcd", "a"))
    assert(Grouping.poolCost(pool, cfg) == 2 * 9 + 4 * 1 + pool.size)
    assert(Grouping.poolCost(Seq(Trans("ab", "abc"), Trans("ab", "abc")), cfg) == 2)
  }
}
