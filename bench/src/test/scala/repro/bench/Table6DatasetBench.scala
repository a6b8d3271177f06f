package repro.bench

import repro.exp.Experiments

/** Reproduces Table 6 (dataset details) on the synthetic stand-ins. */
class Table6DatasetBench extends BenchBase {

  test("Table 6: dataset details") {
    val table = Experiments.table6(spark, specs)
    report(table)

    // shape assertions against the paper's Table 6 proportions
    def avg(ds: String): Double = table(ds)("Avg")
    assert(avg("AuthorList") > avg("Address"))
    assert(avg("Address") > avg("JournalTitle"))
    assert(table("JournalTitle")("#Clusters") > table("Address")("#Clusters"))
    assert(avg("AuthorList") > 15 && avg("AuthorList") < 45)
    assert(avg("JournalTitle") > 1.4 && avg("JournalTitle") < 2.4)
    assert(avg("Address") > 3.5 && avg("Address") < 9.0)
  }
}
