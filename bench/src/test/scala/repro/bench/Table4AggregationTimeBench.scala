package repro.bench

import repro.exp.Experiments

/** Reproduces Table 4 (aggregation time per method, plus NoAffix/Affix). */
class Table4AggregationTimeBench extends BenchBase {

  test("Table 4: aggregation time by method") {
    warmedUp()
    val table = Experiments.table4(spark, specs)
    report(table)

    // shape assertions against the paper's Table 4:
    //  - NoAgg and StructAgg are (near) free, TransAgg >> BothAgg,
    //  - Affix (= BothAgg default) is faster than NoAffix.
    for (s <- specs.map(_.name)) {
      val both = table("BothAgg")(s)
      assert(table("NoAgg")(s) <= both, s"NoAgg should be cheapest ($s)")
      assert(table("StructAgg")(s) <= both, s"StructAgg should be cheaper than BothAgg ($s)")
      assert(table("TransAgg")(s) > both, s"TransAgg should exceed BothAgg ($s)")
    }
    // affix speedup holds in aggregate (the paper: 544s -> 142s on JournalTitle)
    val Seq(affix, noAffix) = Seq("Affix", "NoAffix").map(m => specs.map(s => table(m)(s.name)).sum)
    assert(affix < noAffix * 1.1, s"Affix ($affix) should not be slower than NoAffix ($noAffix)")
  }
}
