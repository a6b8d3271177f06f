package repro.data

import repro.SparkSpec
import org.apache.spark.sql.functions._

class ConsolidationGenSpec extends SparkSpec {

  private val sf = 0.02

  private lazy val author  = ConsolidationGen.authorList(spark, sf).cache()
  private lazy val journal = ConsolidationGen.journalTitle(spark, sf).cache()
  private lazy val addr    = ConsolidationGen.address(spark, sf).cache()

  test("schemas are (cluster, recordId, value, entityId)") {
    for (df <- Seq(author, journal, addr))
      assert(df.columns.toSeq == Seq("cluster", "recordId", "value", "entityId"))
  }

  test("generators are deterministic in (sf, seed)") {
    val a = ConsolidationGen.address(spark, sf).collect().toSet
    val b = ConsolidationGen.address(spark, sf).collect().toSet
    assert(a == b)
  }

  test("different seeds give different data") {
    val a = ConsolidationGen.address(spark, sf, seed = 1).collect().toSet
    val b = ConsolidationGen.address(spark, sf, seed = 2).collect().toSet
    assert(a != b)
  }

  test("record ids are globally unique") {
    for (df <- Seq(author, journal, addr))
      assert(df.select("recordId").distinct().count() == df.count())
  }

  test("cluster counts scale with sf") {
    assert(ConsolidationGen.authorList(spark, 0.01).select("cluster").distinct().count() == 12)
    assert(journal.select("cluster").distinct().count() == (31023 * sf).toInt)
  }

  test("authorList cluster sizes roughly match Table 6 (avg ~27)") {
    val st = ConsolidationGen.stats(spark, author)
    assert(st.avgSize > 15 && st.avgSize < 45, st)
    assert(st.minSize >= 1 && st.maxSize <= 159, st)
  }

  test("journalTitle cluster sizes roughly match Table 6 (avg ~1.8)") {
    val st = ConsolidationGen.stats(spark, journal)
    assert(st.avgSize > 1.4 && st.avgSize < 2.4, st)
  }

  test("address cluster sizes roughly match Table 6 (avg ~5.8)") {
    val st = ConsolidationGen.stats(spark, addr)
    assert(st.avgSize > 3.5 && st.avgSize < 9.0, st)
  }

  test("positive-pair rates mimic the paper's samples (74% / 26.5% / 18%)") {
    def rate(df: org.apache.spark.sql.DataFrame): Double = {
      val p = ConsolidationGen.samplePairs(spark, df, 4000)
      val pos = p.where(col("positive")).count().toDouble
      pos / p.count()
    }
    val rj = rate(journal)
    val ra = rate(author)
    val rd = rate(addr)
    assert(rj > 0.55 && rj < 0.9, s"journal $rj")
    assert(ra > 0.15 && ra < 0.45, s"author $ra")
    assert(rd > 0.08 && rd < 0.33, s"address $rd")
    assert(rj > ra && ra > rd, s"ordering $rj $ra $rd")
  }

  test("every entity's variants are judged true by the matching judge") {
    // within one entity, any two variants must normalize identically —
    // otherwise the simulated expert contradicts the ground truth.
    def check(df: org.apache.spark.sql.DataFrame, judge: DictJudge, name: String): Unit = {
      import spark.implicits._
      val perEntity = df.select("entityId", "value").as[(Long, String)].collect()
        .groupBy(_._1).values.map(_.map(_._2).distinct.toVector).filter(_.size > 1)
      for (vs <- perEntity.take(200); a <- vs.headOption; b <- vs.tail)
        assert(judge.isTrue(a, b), s"$name: '$a' vs '$b'")
    }
    check(addr, Judges.address, "address")
    check(journal, Judges.journalTitle, "journal")
    check(author, Judges.authorList, "author")
  }

  test("cross-entity values are (almost) never judged true") {
    import spark.implicits._
    def mismatchRate(df: org.apache.spark.sql.DataFrame, judge: DictJudge): Double = {
      val byCluster = df.select("cluster", "value", "entityId").as[(Long, String, Long)]
        .collect().groupBy(_._1).values.toVector
      var tested = 0
      var falsePos = 0
      for (c <- byCluster; Array(x, y) <- c.combinations(2).take(50)
           if x._3 != y._3 && x._2 != y._2) {
        tested += 1
        if (judge.isTrue(x._2, y._2)) falsePos += 1
      }
      if (tested == 0) 0.0 else falsePos.toDouble / tested
    }
    assert(mismatchRate(addr, Judges.address) < 0.02)
    assert(mismatchRate(journal, Judges.journalTitle) < 0.02)
  }

  test("stats computes rows, clusters and pair counts consistently") {
    val st = ConsolidationGen.stats(spark, addr)
    assert(st.rows == addr.count())
    assert(st.clusters == addr.select("cluster").distinct().count())
    assert(st.distinctDupPairs > 0)
  }

  test("samplePairs only pairs records within a cluster with distinct values") {
    import spark.implicits._
    val pairs = ConsolidationGen.samplePairs(spark, addr, 500)
      .as[(Long, Long, Long, Boolean)].collect()
    val vals = addr.select("recordId", "value").as[(Long, String)].collect().toMap
    val clus = addr.select("recordId", "cluster").as[(Long, Long)].collect().toMap
    for ((c, r1, r2, _) <- pairs) {
      assert(clus(r1) == c && clus(r2) == c)
      assert(vals(r1) != vals(r2))
    }
  }

  test("record digests are pinned for each generator at fixed sf and seed") {
    import spark.implicits._
    def digest(df: org.apache.spark.sql.DataFrame): String = {
      val lines = df.as[GenRecord].collect().sortBy(_.recordId)
        .map(g => s"${g.cluster}\t${g.recordId}\t${g.value}\t${g.entityId}\n")
      val md = java.security.MessageDigest.getInstance("SHA-256")
      md.digest(lines.mkString.getBytes("UTF-8")).map(b => f"$b%02x").mkString
    }
    assert(digest(author) == "af7fba8b46c4c38eff0669f77cb7303fff88c14f2e378b4808f854d97c4c8e71")
    assert(digest(journal) == "4cbfd8f41b9e3efa623cce977b56b035e65298480f1a85776d0dbe16723afee2")
    assert(digest(addr) == "0b03204d2bb3eee6a8d7c74f5c5e03e9ce615ee2f987746dcce28b743417c32b")
  }

  test("both samples are independent of how the input is partitioned") {
    import spark.implicits._
    val records = ConsolidationGen.authorList(spark, 0.05).cache()
    def samples(parts: Int) = {
      val df = records.repartition(parts)
      (ConsolidationGen.sampleClusters(spark, df, 30),
        ConsolidationGen.samplePairs(spark, df, 800).as[(Long, Long, Long, Boolean)].collect().toVector)
    }
    val (c1, p1) = samples(1)
    val (c7, p7) = samples(7)
    assert(c1.size == 30 && p1.size == 800)
    assert(c1 == c7)
    assert(p1 == p7)
    records.unpersist()
  }

  test("sampleClusters is deterministic and within range") {
    val s1 = ConsolidationGen.sampleClusters(spark, addr, 20)
    val s2 = ConsolidationGen.sampleClusters(spark, addr, 20)
    assert(s1 == s2)
    assert(s1.size == 20)
  }

  test("values are lowercase (the paper lowercased AuthorList)") {
    import spark.implicits._
    val vs = author.select("value").as[String].take(200)
    assert(vs.forall(v => v == v.toLowerCase))
  }
}
