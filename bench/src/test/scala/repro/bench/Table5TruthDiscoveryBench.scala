package repro.bench

import repro.exp.Experiments

/** Reproduces Table 5 (MC golden-record precision before/after). */
class Table5TruthDiscoveryBench extends BenchBase {

  test("Table 5: MC precision improvement") {
    warmedUp()
    val table = Experiments.table5(spark, specs)
    report(table)

    for (s <- specs.map(_.name))
      assert(table("after")(s) > table("before")(s),
        s"$s: MC precision must improve (${table("before")(s)} -> ${table("after")(s)})")
    // The paper's biggest jump is on JournalTitle (.335 -> .840)
    val (before, after) = (table("before")("JournalTitle"), table("after")("JournalTitle"))
    assert(after - before > 0.2, s"JournalTitle improvement too small: $before -> $after")
  }
}
