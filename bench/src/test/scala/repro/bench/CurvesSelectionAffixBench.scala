package repro.bench

import repro.exp.Experiments

/** Companion data for Figures 6 and 8: recall of merging by direction
  * selection method (Fig 6) and with/without the affix functions (Fig 8).
  */
class CurvesSelectionAffixBench extends BenchBase {

  test("Figures 6 and 8: recall by selection method and affix functions") {
    warmedUp()
    val table = Experiments.curvesSelectionAffix(spark, specs)
    report(table)

    // paper: BestDir highest recall, RevDir lowest; Affix >= NoAffix
    def totalRecall(variant: String): Double = specs.map(s => table(s.name, variant)("Recall")).sum
    val totBest = totalRecall("BestDir")
    val totRev  = totalRecall("RevDir")
    val totAff  = totalRecall("Affix")
    val totNoAf = totalRecall("NoAffix")
    assert(totBest >= totRev, s"BestDir ($totBest) should beat RevDir ($totRev)")
    assert(totAff >= totNoAf, s"Affix ($totAff) should beat NoAffix ($totNoAf)")
  }
}
