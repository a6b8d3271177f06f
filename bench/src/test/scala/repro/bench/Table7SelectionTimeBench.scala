package repro.bench

import repro.exp.Experiments

/** Reproduces Table 7 (aggregation time under each selection method). */
class Table7SelectionTimeBench extends BenchBase {

  test("Table 7: aggregation time by selection method") {
    warmedUp()
    val table = Experiments.table7(spark, specs)
    report(table)

    // the paper: all four selection methods have similar aggregation time
    val totals = Seq("RandDir", "LongDir", "RevDir", "BestDir").map(m => specs.map(s => table(m)(s.name)).sum)
    assert(totals.max < totals.min * 8 + 5,
      s"selection methods should have comparable aggregation time, got $totals")
  }
}
