package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec

class EfficiencyHarnessSpec extends AnyFunSuite with SparkSpec {

  private lazy val prepared = EfficiencyHarness.prepare(spark, n = 600, nQueries = 30, k = 5)

  test("prepare builds a consistent scale point") {
    assert(prepared.store.n == 600)
    assert(prepared.index.n == 600)
    assert(prepared.queries.length == 30)
    assert(prepared.exact.length == 30)
    assert(prepared.buildMs > 0 && prepared.bruteMs > 0)
  }

  test("exact ground truth has k results per query") {
    prepared.exact.foreach(e => assert(e.results.length == 5))
  }

  test("runAtL reports recall against exact top-k and positive work") {
    val row = EfficiencyHarness.runAtL(spark, prepared, k = 5, l = 60)
    assert(row.recall >= 0.8, s"recall=${row.recall}")
    assert(row.dotsPerQuery > 0)
    assert(row.batchMs > 0)
  }

  test("recall grows (weakly) with l in runAtL") {
    val small = EfficiencyHarness.runAtL(spark, prepared, k = 5, l = 10)
    val large = EfficiencyHarness.runAtL(spark, prepared, k = 5, l = 120)
    assert(large.recall >= small.recall - 1e-9)
  }

  test("scalePoint climbs the l ladder until the recall target") {
    val row = EfficiencyHarness.scalePoint(spark, n = 600, nQueries = 20, k = 5,
      recallTarget = 0.95, lLadder = Seq(8, 30, 120))
    assert(row.recall >= 0.95 || row.lUsed == 120)
    assert(row.bruteDotsPerQuery == 600 * 2)
  }

  test("runAtL reproduces the pinned recall and dots per query") {
    // Taken before the set-up moved into PreparedDataset.
    val pinned = Seq((10, 0.72, 76L), (60, 0.9666666666666667, 283L), (120, 1.0, 516L))
    pinned.foreach { case (l, recall, dots) =>
      val row = EfficiencyHarness.runAtL(spark, prepared, k = 5, l = l)
      assert(math.abs(row.recall - recall) < 1e-9 && row.dotsPerQuery == dots, s"l=$l: $row")
    }
  }
}
