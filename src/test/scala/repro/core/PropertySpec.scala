package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.core.lang._

/** Property-based tests over the string machinery, using raw ScalaCheck
  * generators (scalatestplus is not in the offline cache).
  */
class PropertySpec extends AnyFunSuite {

  /** Evaluate `f` on `n` deterministic samples of `gen`. */
  private def forSamples[T](gen: Gen[T], n: Int = 120)(f: T => Unit): Unit = {
    var seed = Seed(42L)
    var produced = 0
    var attempts = 0
    while (produced < n && attempts < n * 5) {
      gen.apply(Gen.Parameters.default, seed) match {
        case Some(v) => f(v); produced += 1
        case None    =>
      }
      seed = seed.next
      attempts += 1
    }
    assert(produced > 0, "generator produced no samples")
  }

  private val word: Gen[String] =
    Gen.chooseNum(1, 6).flatMap(n => Gen.stringOfN(n, Gen.alphaLowerChar))

  private val phrase: Gen[String] =
    Gen.chooseNum(1, 5).flatMap(n => Gen.listOfN(n, word)).map(_.mkString(" "))

  private val mixed: Gen[String] = Gen.oneOf(
    phrase,
    Gen.chooseNum(0, 9999).map(_.toString),
    phrase.map(p => p + ", " + p.reverse),
    Gen.const(""),
  )

  private val wordList: Gen[List[String]] =
    Gen.chooseNum(0, 8).flatMap(n => Gen.listOfN(n, word))

  test("LCS is symmetric in length and bounded by both inputs") {
    forSamples(Gen.zip(wordList, wordList)) { case (a, b) =>
      val ab = Lcs.align(a.toVector, b.toVector).length
      val ba = Lcs.align(b.toVector, a.toVector).length
      assert(ab == ba)
      assert(ab <= math.min(a.length, b.length))
    }
  }

  test("LCS of x with itself is |x|") {
    forSamples(wordList) { a =>
      assert(Lcs.align(a.toVector, a.toVector).length == a.length)
    }
  }

  test("gaps and matches partition both sequences") {
    forSamples(Gen.zip(wordList, wordList)) { case (a, b) =>
      val av = a.toVector; val bv = b.toVector
      val matched = Lcs.align(av, bv)
      val gaps    = Lcs.gaps(av, bv)
      val aCovered = matched.map(_._1) ++ gaps.flatMap { case ((f, t), _) => f to t }
      val bCovered = matched.map(_._2) ++ gaps.flatMap { case (_, (f, t)) => f to t }
      assert(aCovered.sorted == av.indices.toVector)
      assert(bCovered.sorted == bv.indices.toVector)
    }
  }

  test("tokenize round-trips: spans reproduce token text") {
    forSamples(mixed) { s =>
      val toks = Tokens.tokenize(s)
      for (t <- toks) assert(s.substring(t.begin - 1, t.end) == t.text)
      assert(toks.map(_.text).mkString(" ") == s.trim.replaceAll("\\s+", " "))
    }
  }

  test("structure length never exceeds string length") {
    forSamples(mixed) { s => assert(Structure.of(s).length <= math.max(s.length, 0)) }
  }

  test("structure collapse is monotone") {
    forSamples(mixed) { s =>
      val st = Structure.of(s)
      assert(Structure.of(st).length <= st.length)
    }
  }

  test("pairRules: every occurrence span extracts the rule side verbatim") {
    forSamples(Gen.zip(phrase, phrase)) { case (v1, v2) =>
      for {
        r <- Rules.pairRules(1, v1, v2)
        (side, occs) <- Seq((r.key.a, r.occA), (r.key.b, r.occB))
        o <- occs
      } assert(o.value.substring(o.p - 1, o.q) == side,
        s"'$side' vs span [${o.p},${o.q}] of '${o.value}'")
    }
  }

  test("full-value rule application makes the pair identical") {
    forSamples(Gen.zip(phrase, phrase)) { case (v1, v2) =>
      if (v1 != v2) {
        val rs   = Rules.pairRules(1, v1, v2)
        val full = rs.find(r => Set(r.key.a, r.key.b) == Set(v1, v2)).get
        val o    = (if (full.key.a == v1) full.occA else full.occB).head
        val replaced = Tokens.applyReplacement(o.value, o.p, o.q,
          if (full.key.a == v1) full.key.b else full.key.a)
        assert(replaced == v2)
      }
    }
  }

  test("graph labels always reproduce their edge substring") {
    forSamples(Gen.zip(word, word), n = 60) { case (s, t) =>
      val g = GraphBuilder.build(0, s, t, GraphConfig())
      for (((i, j), labels) <- g.edges; l <- labels)
        assert(PathCheck.consistent(Seq(l), s, t.substring(i - 1, j - 1)))
    }
  }

  test("pivot groups partition the pool and paths are consistent") {
    forSamples(Gen.listOfN(4, Gen.zip(word, word)), n = 30) { pool =>
      val trans = pool.map { case (a, b) => Trans(a, b + "x") }.distinct
      val groups = Pivot.groupByPrograms(trans, PivotConfig(), Map.empty)
      assert(groups.flatMap(_.members).toSet == trans.toSet)
      for (g <- groups; m <- g.members)
        assert(PathCheck.consistent(g.path, m.lhs, m.rhs))
    }
  }

  test("selection always returns one transformation per distinct rule") {
    forSamples(Gen.listOf(Gen.zip(word, word)), n = 60) { pairs =>
      val keys = pairs.collect { case (a, b) if a != b => RuleKey.of(a, b) }.distinct
      for (m <- Seq(RandDir, LongDir, BestDir, RevDir)) {
        val ts = Selection.select(keys, m)
        assert(ts.map(_.key).toSet == keys.toSet)
        assert(ts.size == keys.size)
      }
    }
  }

  test("Pos.eval is within [1, |s|+1] whenever defined") {
    val posGen: Gen[Pos] = Gen.oneOf(
      Gen.chooseNum(-8, 8).map(ConstPos.apply),
      for {
        t <- Gen.oneOf(Td, Tl, Tc, Tb)
        k <- Gen.chooseNum(-3, 3)
        d <- Gen.oneOf('B', 'E')
      } yield MatchPos(t, k, d),
    )
    forSamples(Gen.zip(mixed, posGen), n = 300) { case (s, p) =>
      for (x <- Pos.eval(p, s)) assert(x >= 1 && x <= s.length + 1)
    }
  }

  test("PathCheck rejects wrong outputs for deterministic programs") {
    forSamples(word) { s =>
      if (s.length >= 2) {
        val prog = Vector(SubStrF(ConstPos(1), ConstPos(2))) // first char
        assert(PathCheck.consistent(prog, s, s.take(1)))
        assert(!PathCheck.consistent(prog, s, s.take(1) + "!"))
      }
    }
  }

  test("Applier.applyCluster is idempotent once no decision applies") {
    forSamples(Gen.zip(phrase, phrase), n = 40) { case (v1, v2) =>
      val records = Map(1L -> v1, 2L -> v2)
      val out = Applier.applyCluster(1, records, Vector.empty, _ => true)
      assert(out == records)
    }
  }
}
