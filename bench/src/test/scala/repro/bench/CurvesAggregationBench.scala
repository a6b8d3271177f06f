package repro.bench

import repro.exp.Experiments

/** Companion data for Figures 3-5: precision/recall/MCC of merging
  * duplicates vs the number of confirmed groups, per aggregation method.
  */
class CurvesAggregationBench extends BenchBase {

  test("Figures 3-5: merging quality by aggregation method and budget") {
    warmedUp()
    val table = Experiments.curvesAggregation(spark, specs)
    report(table)

    // shape assertions per the paper:
    //  - at the full budget, BothAgg recall beats NoAgg (bulk confirmation),
    //  - NoAgg precision is perfect (rules confirmed one by one),
    //  - BothAgg MCC is competitive with the best of the other methods.
    for (spec <- specs) {
      def at100(m: String, metric: String): Double = table(spec.name, m, "100")(metric)
      val noAggRec  = at100("NoAgg", "Recall")
      val bothRec   = at100("BothAgg", "Recall")
      val noAggPrec = at100("NoAgg", "Prec")
      assert(bothRec > noAggRec, s"${spec.name}: BothAgg recall $bothRec <= NoAgg $noAggRec")
      assert(noAggPrec > 0.95, s"${spec.name}: NoAgg precision $noAggPrec")
      val bothMcc = at100("BothAgg", "MCC")
      val others  = Seq("NoAgg", "StructAgg", "TransAgg").map(at100(_, "MCC"))
      assert(bothMcc >= others.max - 0.12,
        s"${spec.name}: BothAgg MCC $bothMcc vs others $others")
    }
  }
}
