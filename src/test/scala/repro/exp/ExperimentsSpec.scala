package repro.exp

import repro.SparkSpec
import repro.exp.Table.{Column, Row}

/** The evaluation-table harness: the table type on a hand-made table, and a
  * smoke run of three `Experiments` tables on tiny datasets.
  */
class ExperimentsSpec extends SparkSpec {

  test("Table renders aligned columns and looks cells up by row labels and column name") {
    val t = Table("T", Seq("Dataset", "k"), Seq(Column("a", 0), Column("bb", 3)),
      Seq(Row(Seq("X", "1"), Seq(12, 0.5)), Row(Seq("Long", "2"), Seq(3, 1.25))))
    assert(t.render == Seq(
      "T",
      "Dataset  k   a     bb",
      "X        1  12  0.500",
      "Long     2   3  1.250").mkString("\n"))
    assert(t("X", "1")("bb") == 0.5 && t("Long", "2")("a") == 3)
    intercept[NoSuchElementException](t("X", "2")("a"))
    intercept[NoSuchElementException](t("X")("a"))
    intercept[NoSuchElementException](t("X", "1")("c"))
    intercept[IllegalArgumentException](Table("T", Seq("k"), Seq(Column("a", 0)), Seq(Row(Seq("x"), Seq(1, 2)))))
  }

  test("table4, table6 and table5 name their rows and columns on tiny datasets") {
    val specs = Experiments.benchDatasets(authorSf = 0.002, addressSf = 0.005, journalSf = 0.005)
    val names = specs.map(_.name)

    val t4 = Experiments.table4(spark, specs)
    assert(t4.labelNames == Seq("Method") && t4.columns.map(_.name) == names)
    assert(t4.rows.map(_.labels) ==
      Seq("NoAgg", "StructAgg", "TransAgg", "BothAgg", "NoAffix", "Affix").map(Seq(_)))
    for (n <- names) assert(t4("Affix")(n) == t4("BothAgg")(n) && t4("NoAffix")(n) >= 0)

    val t6 = Experiments.table6(spark, specs)
    assert(t6.labelNames == Seq("Dataset") && t6.rows.map(_.labels) == names.map(Seq(_)))
    assert(t6.columns.map(_.name) == Seq("sf", "#Rows", "#Clusters", "Avg", "Min", "Max", "#DupPairs"))
    for (s <- specs) assert(t6(s.name)("sf") == s.sf && t6(s.name)("#Rows") >= t6(s.name)("#Clusters"))

    val t5 = Experiments.table5(spark, specs)
    assert(t5.columns.map(_.name) == names && t5.rows.map(_.labels) == Seq(Seq("before"), Seq("after")))
    for (r <- Seq("before", "after"); n <- names) assert(t5(r)(n) >= 0 && t5(r)(n) <= 1)
  }
}
