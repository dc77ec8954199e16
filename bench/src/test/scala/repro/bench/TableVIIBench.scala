package repro.bench

import repro.eval.TableRunners

/** Table VII — response time of MUST-- (brute force) vs MUST at
  * Recall@10(10) > 0.99 under growing data volume.
  *
  * Paper (seconds, n = 1M..16M): MUST-- 15.4 / 32.8 / 67.5 / 129.9 / 266.9,
  * MUST 2.7 / 2.7 / 3.4 / 3.4 / 4.4 (98.4% reduction at 16M). Our scale
  * analogs are 3k..48k. Both wall times are driver-side on nproc threads
  * over the same in-memory store (MUST's search, brute force's exact
  * scan), a like-for-like comparison; the machine-independent
  * linear-vs-flat evidence is the per-query dot-product count, printed
  * alongside wall time.
  */
class TableVIIBench extends BenchSpec {

  val paperSeconds: Map[String, (Double, Double)] = Map(
    "1M" -> (15.4, 2.7), "2M" -> (32.8, 2.7), "4M" -> (67.5, 3.4),
    "8M" -> (129.9, 3.4), "16M" -> (266.9, 4.4))

  private lazy val rows = TableRunners.tableVII(spark)

  test("Table VII: print paper vs measured") {
    banner("Table VII — response time vs data volume (scale analogs)")
    println(f"${"scale"}%-5s ${"n"}%-6s paper(brute/must s)   ours(brute/must s)   l     recall    dots/query (brute | must)")
    rows.foreach { case (label, r) =>
      val (pb, pm) = paperSeconds(label)
      println(f"$label%-5s ${r.n}%-6d $pb%8.1f/$pm%-6.1f      ${r.bruteMs / 1000}%8.2f/${r.mustMs / 1000}%-6.2f  ${r.lUsed}%-5d ${r.recall}%.4f  ${r.bruteDotsPerQuery}%10d | ${r.mustDotsPerQuery}%d")
    }
    assert(rows.size == 5)
  }

  test("Table VII shape: every scale point reaches Recall@10(10) >= 0.99") {
    rows.foreach { case (label, r) => assert(r.recall >= 0.99, s"$label recall=${r.recall}") }
  }

  test("Table VII shape: brute-force cost grows linearly with n") {
    val first = rows.head._2
    val last = rows.last._2
    val growth = last.bruteDotsPerQuery.toDouble / first.bruteDotsPerQuery
    assert(growth > 12.0, s"expected ~16x dot growth, got $growth")
  }

  test("Table VII shape: MUST cost grows far slower than linear") {
    val first = rows.head._2
    val last = rows.last._2
    val mustGrowth = last.mustDotsPerQuery.toDouble / first.mustDotsPerQuery
    val bruteGrowth = last.bruteDotsPerQuery.toDouble / first.bruteDotsPerQuery
    assert(mustGrowth < bruteGrowth / 2.0, s"must=$mustGrowth brute=$bruteGrowth")
  }

  test("Table VII shape: MUST scans a small fraction of the data at 16M-analog") {
    val last = rows.last._2
    val frac = last.mustDotsPerQuery.toDouble / last.bruteDotsPerQuery
    assert(frac < 0.25, s"MUST scans ${frac * 100}%% of brute-force work")
  }
}
