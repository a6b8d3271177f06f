package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.util.Random

/** One generated record: the entity-resolution cluster it landed in, a unique
  * record id, the attribute value, and the ground-truth entity that produced
  * it (clusters deliberately mix entities to model ER errors — the paper's
  * samples found only 18% / 26.5% / 74% of within-cluster pairs to be real
  * duplicates for Address / AuthorList / JournalTitle).
  */
final case class GenRecord(cluster: Long, recordId: Long, value: String, entityId: Long)

/** Synthetic stand-ins for the paper's three real-world datasets (DESIGN.md §3).
  * Deterministic in (sf, seed); sf = 1.0 approximates the paper's Table 6
  * row/cluster counts.
  */
object ConsolidationGen {

  private val FirstNames = Vector(
    "andrew", "dominic", "chris", "david", "wenbo", "john", "michael", "robert",
    "patrick", "joe", "walter", "marvin", "eric", "greg", "bill", "james",
    "mary", "susan", "linda", "karen", "nancy", "laura", "sarah", "emily",
    "thomas", "richard", "charles", "daniel", "paul", "mark", "donald", "george",
    "helen", "anna", "ruth", "jack", "henry", "peter", "carl", "arthur",
    "alice", "julia", "frank", "ralph", "eugene", "howard", "harold", "louis")

  private val LastNames = Vector(
    "sloss", "symes", "wright", "rayfield", "dewitt", "ullman", "madden", "tao",
    "meyers", "celko", "chan", "sedgewick", "lenk", "zelkowitz", "savitch",
    "rittinghouse", "smith", "johnson", "williams", "brown", "jones", "garcia",
    "miller", "davis", "wilson", "moore", "taylor", "anderson", "thomas",
    "jackson", "white", "harris", "martin", "thompson", "martinez", "robinson",
    "clark", "rodriguez", "lewis", "lee", "walker", "hall", "allen", "young",
    "hernandez", "king", "lopez", "hill")

  private val StreetNames = Vector(
    "main", "oak", "maple", "cedar", "pine", "elm", "washington", "lake",
    "hill", "park", "river", "spring", "church", "center", "mill", "walnut")

  private val Cities = Vector(
    "springfield", "madison", "georgetown", "franklin", "clinton", "salem",
    "fairview", "bristol", "dover", "hudson", "milton", "newport")

  private val JournalNouns = Vector(
    "medicine", "science", "engineering", "chemistry", "physics", "biology",
    "economics", "mathematics", "technology", "education", "psychology",
    "surgery", "management", "research")

  private val JournalAdjs = Vector(
    "applied", "clinical", "environmental", "american", "european",
    "international", "theoretical", "experimental", "comparative", "modern")

  private def rng(seed: Long, cid: Long): Random =
    new Random(seed ^ (cid * 0x9E3779B97F4A7C15L))

  private def pick[T](r: Random, xs: Vector[T]): T = xs(r.nextInt(xs.length))

  private def poisson(r: Random, lambda: Double): Int = {
    val limit = math.exp(-lambda)
    var p = 1.0
    var k = 0
    while ({ p *= r.nextDouble(); p > limit }) k += 1
    k
  }

  /** Pick a variant index with a skewed distribution, so that identical
    * duplicates recur inside a cluster (MC needs non-trivial majorities).
    */
  private def skewedIndex(r: Random, n: Int): Int = {
    val u = r.nextDouble()
    if (u < 0.45) 0 else if (u < 0.75) 1 % n else if (u < 0.9) 2 % n else r.nextInt(n)
  }

  // ----------------------------------------------------------------------
  // AUTHORLIST — 1,265 clusters, 33,971 rows, avg 26.85 at sf = 1.0
  // ----------------------------------------------------------------------

  def authorList(spark: SparkSession, sf: Double = 1.0, seed: Long = 11): DataFrame = {
    import spark.implicits._
    val nClusters = math.max(1, (1265 * sf).toInt)
    spark.range(nClusters).as[Long].flatMap(cid => authorCluster(cid, seed)).toDF()
  }

  private[data] def authorCluster(cid: Long, seed: Long): Seq[GenRecord] = {
    val r    = rng(seed, cid)
    val size = math.max(1, math.min(159, math.round(math.exp(r.nextGaussian() * 1.1 + 2.7)).toInt))
    val nEntities = math.max(1, math.min(size, 1 + poisson(r, 2.8)))
    val entities  = Vector.tabulate(nEntities) { slot =>
      val eid = cid * 4096 + slot
      val er  = rng(seed + 1, eid)
      val nAuthors = {
        val u = er.nextDouble()
        if (u < 0.45) 1 else if (u < 0.75) 2 else if (u < 0.9) 3 else 4
      }
      val authors = Vector.fill(nAuthors)(
        (pick(er, FirstNames), ('a' + er.nextInt(26)).toChar.toString, pick(er, LastNames)))
      val variants = authorVariants(er, authors)
      (eid, variants)
    }
    Vector.tabulate(size) { i =>
      val (eid, variants) = entities(r.nextInt(nEntities))
      GenRecord(cid, cid * 4096 + i, variants(skewedIndex(r, variants.length)), eid)
    }
  }

  /** A pool of 3–4 format variants of one author list: natural order,
    * inverted `last, first`, separator changes, `(author)` annotations,
    * middle initials kept or dropped — the Table 8 phenomena.
    */
  private def authorVariants(r: Random, authors: Vector[(String, String, String)]): Vector[String] = {
    def natural(mid: Boolean, sep: String) =
      authors.map { case (f, m, l) => if (mid) s"$f $m $l" else s"$f $l" }.mkString(sep)
    def inverted(mid: Boolean, sep: String) =
      authors.map { case (f, m, l) => if (mid) s"$l, $f $m." else s"$l, $f" }.mkString(sep)
    def annotated =
      authors.map { case (f, _, l) => s"$l, $f (author)" }.mkString(" ")

    val midProb = r.nextDouble() < 0.35
    val seps    = Vector("; ", ", ", " and ")
    val base = Vector(
      natural(mid = false, pick(r, seps)),
      inverted(mid = midProb, "; "),
      if (r.nextDouble() < 0.5) annotated else natural(mid = true, "; "),
      if (r.nextDouble() < 0.5) inverted(mid = false, "/ ") else natural(mid = false, pick(r, seps)),
    )
    base.distinct
  }

  // ----------------------------------------------------------------------
  // JOURNALTITLE — 31,023 clusters, 55,617 rows, avg 1.79 at sf = 1.0
  // ----------------------------------------------------------------------

  def journalTitle(spark: SparkSession, sf: Double = 1.0, seed: Long = 13): DataFrame = {
    import spark.implicits._
    val nClusters = math.max(1, (31023 * sf).toInt)
    spark.range(nClusters).as[Long].flatMap(cid => journalCluster(cid, seed)).toDF()
  }

  private[data] def journalCluster(cid: Long, seed: Long): Seq[GenRecord] = {
    val r = rng(seed, cid)
    val size = {
      val u = r.nextDouble()
      if (u < 0.50) 1
      else if (u < 0.85) 2
      else if (u < 0.95) 3
      else if (u < 0.995) 4
      else 5 + r.nextInt(30)
    }
    val nEntities = if (size >= 2 && r.nextDouble() < 0.22) 2 else 1
    val entities = Vector.tabulate(nEntities) { slot =>
      val eid = cid * 4096 + slot
      val er  = rng(seed + 1, eid)
      (eid, journalVariants(er))
    }
    Vector.tabulate(size) { i =>
      val (eid, variants) = entities(r.nextInt(nEntities))
      GenRecord(cid, cid * 4096 + i, variants(skewedIndex(r, variants.length)), eid)
    }
  }

  private def journalVariants(r: Random): Vector[String] = {
    val noun = pick(r, JournalNouns)
    val adj  = pick(r, JournalAdjs)
    val canonical = r.nextInt(6) match {
      case 0 => s"journal of $adj $noun"
      case 1 => s"international journal of $noun"
      case 2 => s"$adj $noun review"
      case 3 => s"transactions on $adj $noun"
      case 4 => s"annals of $noun and ${pick(r, JournalNouns)}"
      case 5 => s"bulletin of $adj $noun"
    }
    val v1 = abbreviate(r, canonical, prob = 0.9)
    val v2 = abbreviate(r, canonical, prob = 0.5)
    Vector(canonical, v1, v2).distinct
  }

  /** Abbreviate abbreviatable tokens with the given probability; swap
    * and/& sometimes.
    */
  private def abbreviate(r: Random, title: String, prob: Double): String =
    title.split(" ").map { tok =>
      if (tok == "and" && r.nextDouble() < 0.5) "&"
      else Variants.journalWords.get(tok) match {
        case Some(vs) if r.nextDouble() < prob => pick(r, vs)
        case _                                 => tok
      }
    }.mkString(" ")

  // ----------------------------------------------------------------------
  // ADDRESS — 3,038 clusters, 17,497 rows, avg 5.76 at sf = 1.0
  // ----------------------------------------------------------------------

  def address(spark: SparkSession, sf: Double = 1.0, seed: Long = 17): DataFrame = {
    import spark.implicits._
    val nClusters = math.max(1, (3038 * sf).toInt)
    spark.range(nClusters).as[Long].flatMap(cid => addressCluster(cid, seed)).toDF()
  }

  private[data] def addressCluster(cid: Long, seed: Long): Seq[GenRecord] = {
    val r    = rng(seed, cid)
    val size = math.max(1, math.min(300, math.round(math.exp(r.nextGaussian() * 0.9 + 1.35)).toInt))
    val nEntities = math.max(1, math.min(size, 1 + poisson(r, 4.2)))
    val entities = Vector.tabulate(nEntities) { slot =>
      val eid = cid * 4096 + slot
      val er  = rng(seed + 1, eid)
      (eid, addressVariants(er))
    }
    Vector.tabulate(size) { i =>
      val (eid, variants) = entities(r.nextInt(nEntities))
      GenRecord(cid, cid * 4096 + i, variants(skewedIndex(r, variants.length)), eid)
    }
  }

  /** Variants of one address. Entities draw from several *format families*
    * (the real NYC funding addresses are highly heterogeneous — a uniform
    * template would create giant same-structure pools the real data does not
    * have). Family A is the paper's Table 1 style: "9 st, 02141 wisconsin".
    */
  private def addressVariants(r: Random): Vector[String] = {
    val numbered = r.nextDouble() < 0.4
    val num      = 1 + r.nextInt(99)
    val houseNum = 1 + r.nextInt(9999)
    val street   = if (numbered) "" else pick(r, StreetNames)
    val twoWord  = !numbered && r.nextDouble() < 0.3
    val street2  = if (twoWord) " " + pick(r, StreetNames) else ""
    val dir      = if (r.nextDouble() < 0.25) Some(pick(r, Variants.directions.keys.toVector.sorted)) else None
    val stype    = pick(r, Variants.streetTypes.keys.toVector.sorted)
    val state    = pick(r, Variants.states.keys.toVector.sorted)
    val city     = pick(r, Cities)
    val zip      = f"${10000 + r.nextInt(89999)}%05d"
    val suite    = 1 + r.nextInt(400)
    val family   = r.nextInt(4)

    def render(ordinalForm: Boolean, dirAbbrev: Boolean, typeAbbrev: Boolean, stateAbbrev: Boolean): String = {
      val head =
        if (numbered) { if (ordinalForm) Variants.ordinal(num) else num.toString }
        else street + street2
      val d = dir.map(dd => if (dirAbbrev) Variants.directions(dd).head else dd)
      val t = if (typeAbbrev) Variants.streetTypes(stype)(r.nextInt(Variants.streetTypes(stype).length)) else stype
      val s = if (stateAbbrev) Variants.states(state).head else state
      val core = (d.toVector ++ Vector(head, t)).mkString(" ")
      family match {
        case 0 => s"$core, $zip $s"                           // paper Table 1 style
        case 1 => s"$houseNum $core, $city, $s $zip"
        case 2 => s"$houseNum $core suite $suite, $city $s"
        case 3 => s"$core, $city, $s"
      }
    }

    Vector(
      render(ordinalForm = true,  dirAbbrev = false, typeAbbrev = false, stateAbbrev = true),
      render(ordinalForm = false, dirAbbrev = true,  typeAbbrev = true,  stateAbbrev = true),
      render(ordinalForm = true,  dirAbbrev = r.nextBoolean(), typeAbbrev = true, stateAbbrev = false),
      render(ordinalForm = false, dirAbbrev = false, typeAbbrev = r.nextBoolean(), stateAbbrev = false),
    ).distinct
  }

  // ----------------------------------------------------------------------
  // Shared helpers
  // ----------------------------------------------------------------------

  /** Dataset statistics for Table 6. */
  final case class Stats(rows: Long, clusters: Long, avgSize: Double, minSize: Long,
                         maxSize: Long, distinctDupPairs: Long)

  def stats(spark: SparkSession, records: DataFrame): Stats = {
    import spark.implicits._
    import org.apache.spark.sql.functions._
    val sizes = records.groupBy("cluster").agg(count(lit(1)).as("n")).select($"n".as[Long]).collect()
    val pairs = repro.core.RuleGen.distinctDuplicatePairs(spark, records)
    Stats(sizes.sum, sizes.length, sizes.sum.toDouble / sizes.length, sizes.min, sizes.max, pairs)
  }

  /** A fixed random sample of `n` labeled within-cluster record pairs with
    * *distinct* values (the paper's "distinct duplicate pairs"); positive iff
    * same entity.
    */
  def samplePairs(spark: SparkSession, records: DataFrame, n: Int): DataFrame = {
    import spark.implicits._
    import org.apache.spark.sql.functions._
    val pairs = records.as[GenRecord]
      .groupByKey(_.cluster)
      .flatMapGroups { (cid, it) =>
        val rs = it.toVector
        for {
          i <- rs.indices.iterator
          j <- ((i + 1) until rs.length).iterator
          if rs(i).value != rs(j).value
        } yield (cid, rs(i).recordId, rs(j).recordId, rs(i).entityId == rs(j).entityId)
      }
      .toDF("cluster", "rid1", "rid2", "positive")
    pairs.orderBy(rand(23)).limit(n)
  }

  /** A fixed random sample of `n` cluster ids (the Table 5 ground-truth set). */
  def sampleClusters(spark: SparkSession, records: DataFrame, n: Int): Seq[Long] = {
    import spark.implicits._
    import org.apache.spark.sql.functions._
    records.select("cluster").distinct().orderBy(rand(29)).limit(n)
      .select($"cluster".as[Long]).collect().toSeq
  }
}
