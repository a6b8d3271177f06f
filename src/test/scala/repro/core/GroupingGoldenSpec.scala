package repro.core

import repro.SparkSpec
import repro.core.lang.PivotConfig
import scala.io.Source

/** Pins `Grouping.group`'s BothAgg and TransAgg output byte for byte: group
  * ids, path keys and sorted members on fixed pools of selected
  * transformations from the three stand-in datasets.
  *
  * `golden/grouping_pools.tsv` holds the pools (dataset, lhs, rhs);
  * `golden/grouping_expected.tsv` one line per group member, in output order
  * (dataset, method, group id, path key, lhs, rhs). Fields escape `\`, tab,
  * CR and LF with a backslash.
  */
class GroupingGoldenSpec extends SparkSpec {
  import GroupingGoldenSpec._

  private val pools: Vector[(String, Vector[Trans])] =
    readTsv("golden/grouping_pools.tsv")
      .groupBy(_(0)).toVector.sortBy(_._1)
      .map { case (ds, rows) => ds -> rows.map(r => Trans(r(1), r(2))) }

  private val expected: Map[(String, String), Vector[Vector[String]]] =
    readTsv("golden/grouping_expected.tsv").groupBy(r => (r(0), r(1)))

  test("golden pools cover the three datasets") {
    assert(pools.map(_._1) == Vector("Address", "AuthorList", "JournalTitle"))
    assert(pools.forall(_._2.size >= 50))
  }

  for (method <- Seq(BothAgg, TransAgg); ds <- Seq("Address", "AuthorList", "JournalTitle"))
    test(s"$method on $ds matches the golden output") {
      val pool = pools.find(_._1 == ds).get._2
      val got  = rows(ds, method, Grouping.group(spark, pool, method, pivotConfig(ds)))
      val want = expected((ds, method.toString))
      assert(got.size == want.size, s"${got.size} member lines, expected ${want.size}")
      for ((g, w) <- got.zip(want)) assert(g == w)
    }
}

object GroupingGoldenSpec {

  /** The paper's θ: 5 for AuthorList, 4 otherwise. */
  def pivotConfig(ds: String): PivotConfig =
    PivotConfig(maxPathLen = if (ds == "AuthorList") 5 else 4)

  def rows(ds: String, method: AggMethod, groups: Vector[RuleGroup]): Vector[Vector[String]] =
    for (g <- groups; m <- g.members)
      yield Vector(ds, method.toString, g.id, g.path.fold("")(lang.PathCheck.pathKey), m.lhs, m.rhs)

  def escape(s: String): String =
    s.flatMap {
      case '\\' => "\\\\"; case '\t' => "\\t"; case '\n' => "\\n"; case '\r' => "\\r"
      case c    => c.toString
    }

  def unescape(s: String): String = {
    val sb = new StringBuilder
    var i  = 0
    while (i < s.length) {
      if (s.charAt(i) == '\\') {
        sb += (s.charAt(i + 1) match { case 't' => '\t'; case 'n' => '\n'; case 'r' => '\r'; case c => c })
        i += 2
      } else { sb += s.charAt(i); i += 1 }
    }
    sb.toString
  }

  def readTsv(resource: String): Vector[Vector[String]] = {
    val src = Source.fromResource(resource)("UTF-8")
    try src.getLines().filter(_.nonEmpty).map(_.split("\t", -1).toVector.map(unescape)).toVector
    finally src.close()
  }
}
