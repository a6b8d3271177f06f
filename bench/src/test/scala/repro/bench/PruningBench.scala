package repro.bench

import repro.exp.Experiments

/** Companion data for Figure 7: aggregation time under the four pruning
  * variants (NoThrsh / LocalThrsh / GlobalThrsh / AllThrsh) and θ ∈ {3, 4}.
  * Runs on reduced SFs with a raised search budget so NoThrsh actually pays
  * for its missing pruning instead of just hitting the budget.
  */
class PruningBench extends BenchBase {

  test("Figure 7: pruning-variant aggregation times") {
    warmedUp()
    val small = Experiments.benchDatasets(authorSf = 0.02, addressSf = 0.04, journalSf = 0.04)
    val table = Experiments.pruning(spark, small)
    report(table)

    // paper: AllThrsh fastest, NoThrsh slowest (up to an order of magnitude)
    val Seq(no, loc, glob, all) = Seq("NoThrsh", "LocalThrsh", "GlobalThrsh", "AllThrsh")
      .map(c => table.rows.map(r => table(r.labels: _*)(c)).sum)
    assert(all <= no, s"AllThrsh ($all) should not exceed NoThrsh ($no)")
    assert(math.min(loc, glob) <= no * 1.1,
      s"single-threshold variants should not exceed NoThrsh (no=$no loc=$loc glob=$glob)")
  }
}
