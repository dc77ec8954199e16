package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.core.Types._
import repro.core.WeightLearning.WLConfig

/** End-to-end framework comparison on a small analog — the paper's
  * headline claims at test scale: MUST beats both baselines, and the
  * learned weights favor the cleaner modality. */
class AccuracyHarnessSpec extends AnyFunSuite with SparkSpec {

  private val ds = DatasetConfig("e2e", n = 500, nQueries = 60, m = 2, dim = 16,
    dLat = 8, nClusters = 25, tau = 0.35, seed = 81L)
  private val enc = EncoderConfig("CLIP+Aux", targetNoise = 0.9, auxNoises = Seq(0.55),
    compNoise = 0.85, targetIsComposition = true)
  private val cfg = AccuracyHarness.GridConfig(
    ks = Seq(1, 5, 10), searchL = 40, mrL = 40, nTrainAnchors = 80,
    idx = IndexConfig(gamma = 10, epsilon = 2),
    wl = WLConfig(epochs = 40))

  private lazy val rows =
    AccuracyHarness.runGrid(spark, ds, Seq(enc), Seq(enc), cfg)

  test("grid produces one row per framework") {
    assert(rows.map(_.framework).sorted == Seq("JE", "MR", "MUST"))
  }

  test("rows carry all requested recall cut-offs") {
    rows.foreach(r => assert(r.recalls.map(_._1) == Seq(1, 5, 10)))
  }

  test("recall grows with k within each row") {
    rows.foreach { r =>
      assert(r.recallAt(1) <= r.recallAt(5) + 1e-9)
      assert(r.recallAt(5) <= r.recallAt(10) + 1e-9)
    }
  }

  test("MUST beats JE on Recall@10 (headline claim)") {
    val must = rows.find(_.framework == "MUST").get
    val je = rows.find(_.framework == "JE").get
    assert(must.recallAt(10) > je.recallAt(10),
      s"MUST=${must.recallAt(10)} JE=${je.recallAt(10)}")
  }

  test("MUST beats MR on Recall@10 (headline claim)") {
    val must = rows.find(_.framework == "MUST").get
    val mr = rows.find(_.framework == "MR").get
    assert(must.recallAt(10) > mr.recallAt(10),
      s"MUST=${must.recallAt(10)} MR=${mr.recallAt(10)}")
  }

  test("MUST has the lowest SME") {
    val must = rows.find(_.framework == "MUST").get
    rows.filterNot(_.framework == "MUST").foreach { r =>
      assert(must.sme <= r.sme + 0.02, s"MUST sme=${must.sme} vs ${r.framework}=${r.sme}")
    }
  }

  test("only the MUST row reports learned weights") {
    rows.foreach { r =>
      if (r.framework == "MUST") assert(r.learnedWeights.length == ds.m)
      else assert(r.learnedWeights.isEmpty)
    }
  }

  test("learned weights favor the cleaner auxiliary modality") {
    val must = rows.find(_.framework == "MUST").get
    assert(must.learnedWeights(1) > must.learnedWeights(0) * 0.5,
      s"weights=${must.learnedWeights}")
  }

  test("grid reproduces the pinned recalls, SME and learned weights") {
    // (framework, Recall@1/5/10, SME, learned weights), taken before the
    // set-up moved into PreparedDataset: the refactor must not change a row.
    val pinned = Seq(
      ("JE", Seq(0.11666666666666667, 0.5333333333333333, 0.7333333333333333), 0.17045390743181635, Nil),
      ("MR", Seq(0.3333333333333333, 0.7666666666666667, 0.9), 0.10520631433762068, Nil),
      ("MUST", Seq(0.4166666666666667, 0.8833333333333333, 0.9333333333333333), 0.08780152228672049,
        Seq(0.6637258067228011, 0.7580032435162192)))
    def close(a: Seq[Double], b: Seq[Double]): Boolean =
      a.length == b.length && a.zip(b).forall { case (x, y) => math.abs(x - y) < 1e-9 }
    assert(rows.map(_.framework) == pinned.map(_._1))
    rows.zip(pinned).foreach { case (r, (fw, recalls, sme, weights)) =>
      assert(close(r.recalls.map(_._2), recalls), s"$fw recalls ${r.recalls}")
      assert(close(Seq(r.sme), Seq(sme)), s"$fw sme ${r.sme}")
      assert(close(r.learnedWeights, weights), s"$fw weights ${r.learnedWeights}")
    }
  }
}
