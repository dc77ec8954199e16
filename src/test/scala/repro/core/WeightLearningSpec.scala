package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.{PropSupport, SparkSpec}
import repro.core.Types._
import repro.core.WeightLearning.WLConfig
import repro.mmdata.MultiModalSynth

class WeightLearningSpec extends AnyFunSuite with SparkSpec with PropSupport {

  // Modality 1 is much less noisy than modality 0 ⇒ learning should
  // assign it the larger weight (the paper's CelebA/Shopping pattern).
  private val ds = DatasetConfig("wl", n = 300, nQueries = 60, m = 2, dim = 16,
    dLat = 8, nClusters = 15, tau = 0.35, seed = 21L)
  private val enc = EncoderConfig("enc", targetNoise = 1.1, auxNoises = Seq(0.4))

  private lazy val objects = MultiModalSynth.objects(spark, ds).cache()
  private lazy val anchors = MultiModalSynth.queries(spark, ds, enc, seedTag = 1L)

  test("closed-form gradient matches numeric differentiation") {
    val t: Array[(Long, Array[Array[Double]])] = (0 until 8).map { i =>
      i.toLong -> Array.tabulate(2)(mi =>
        VecOps.normalize(VecOps.gaussianVec(5L, mi.toLong, i.toLong, 10)))
    }.toArray
    val anchor = MMQuery(0L, gt = 3L,
      vecs = Array.tabulate(2)(mi =>
        VecOps.normalize(VecOps.gaussianVec(6L, mi.toLong, 3L, 10)).toSeq).toSeq,
      comp = Seq.empty)
    // All-negatives config keeps N⁻ independent of w ⇒ smooth loss.
    val cfg = WLConfig(negatives = t.length - 1)
    val w = Array(0.7, 0.4)
    val row = WeightLearning.anchorIps(anchor, t, m = 2)
    val (grad, _, _) = WeightLearning.anchorGrad(w, row, cfg)
    val eps = 1e-6
    (0 until 2).foreach { i =>
      val wp = w.clone(); wp(i) += eps
      val wm = w.clone(); wm(i) -= eps
      val (_, lp, _) = WeightLearning.anchorGrad(wp, row, cfg)
      val (_, lm, _) = WeightLearning.anchorGrad(wm, row, cfg)
      val numeric = (lp - lm) / (2 * eps)
      assert(math.abs(grad(i) - numeric) < 1e-5, s"modality $i: analytic=${grad(i)} numeric=$numeric")
    }
  }

  test("gradient pulls the positive closer: loss decreases after one step") {
    val t: Array[(Long, Array[Array[Double]])] = (0 until 10).map { i =>
      i.toLong -> Array.tabulate(2)(mi =>
        VecOps.normalize(VecOps.gaussianVec(7L, mi.toLong, i.toLong, 10)))
    }.toArray
    val anchor = MMQuery(0L, gt = 2L,
      vecs = t(2)._2.map(_.toSeq).toSeq, comp = Seq.empty) // anchor == positive: easy case
    val cfg = WLConfig(negatives = 4)
    val w = Array(0.5, 0.5)
    val row = WeightLearning.anchorIps(anchor, t, m = 2)
    val (g, l0, _) = WeightLearning.anchorGrad(w, row, cfg)
    val w1 = Array.tabulate(2)(i => w(i) - 0.05 * g(i))
    val (_, l1, _) = WeightLearning.anchorGrad(w1, row, cfg)
    assert(l1 <= l0 + 1e-9, s"loss rose: $l0 -> $l1")
  }

  test("learn: loss history decreases overall") {
    val r = WeightLearning.learn(anchors, objects, ds.m, WLConfig(epochs = 40, lr = 0.05))
    assert(r.lossHistory.length == 40)
    assert(r.lossHistory.last < r.lossHistory.head,
      s"loss did not improve: ${r.lossHistory.head} -> ${r.lossHistory.last}")
  }

  test("learn: the cleaner modality receives the larger weight") {
    val r = WeightLearning.learn(anchors, objects, ds.m, WLConfig(epochs = 60, lr = 0.05))
    assert(r.weights(1) > r.weights(0),
      s"expected aux-dominant weights, got ${r.weights.toSeq}")
  }

  test("learn: weights stay non-negative") {
    val r = WeightLearning.learn(anchors, objects, ds.m, WLConfig(epochs = 60, lr = 0.2))
    assert(r.weights.forall(_ >= 0.0))
  }

  test("learn fails, naming the cause, when every weight is clamped to 0") {
    import spark.implicits._
    // Each anchor is the negation of its true object, so every modality's
    // gradient is positive and one large step clamps every weight to 0.
    val negated = objects.collect().sortBy(_.id).take(20)
      .map(o => MMQuery(o.id, gt = o.id, vecs = o.vecs.map(_.map(-_)), comp = Seq.empty))
    val e = intercept[IllegalArgumentException](
      WeightLearning.learn(negated.toSeq.toDS(), objects, ds.m, WLConfig(epochs = 5, lr = 100.0)))
    assert(e.getMessage.contains("clamped every weight to 0"), e.getMessage)
  }

  test("learn: top-1 training accuracy improves over the run") {
    val r = WeightLearning.learn(anchors, objects, ds.m, WLConfig(epochs = 60, lr = 0.05))
    val early = r.top1History.take(5).max
    val late = r.top1History.takeRight(5).max
    assert(late >= early, s"top1 degraded: $early -> $late")
  }

  test("learn is deterministic") {
    val a = WeightLearning.learn(anchors, objects, ds.m, WLConfig(epochs = 10))
    val b = WeightLearning.learn(anchors, objects, ds.m, WLConfig(epochs = 10))
    assert(a.weights.toSeq == b.weights.toSeq)
    assert(a.lossHistory == b.lossHistory)
  }

  test("learn reproduces the pinned weights") {
    // Pinned values and their raw bits. A change of summation order moves the
    // weights by rounding only, within 1e-9, but changes the bits: a refactor
    // that means to keep the weights must keep the bits.
    val golden = Seq(
      WLConfig(epochs = 60, lr = 0.05) ->
        Seq(0.6599382982613787 -> 0x3fe51e36ec0d22f1L, 0.8443320439148951 -> 0x3feb04c4a27289b6L),
      WLConfig(epochs = 40, hardNegatives = false) ->
        Seq(1.018873016956816 -> 0x3ff04d4dcae9b3baL, 1.2887047117375352 -> 0x3ff49e88d4f1d236L),
    )
    golden.foreach { case (cfg, expected) =>
      val r = WeightLearning.learn(anchors, objects, ds.m, cfg)
      r.weights.zip(expected).foreach { case (x, (y, bits)) =>
        assert(math.abs(x - y) < 1e-9, s"$cfg: ${r.weights.toSeq}")
        assert(java.lang.Double.doubleToRawLongBits(x) == bits, s"$cfg: ${r.weights.toSeq}")
      }
    }
  }

  test("learn gives the same weights bit for bit whatever the objects' schema and partitioning") {
    import spark.implicits._
    val cfg = WLConfig(epochs = 20)
    def bits(objs: org.apache.spark.sql.Dataset[MMObject]) =
      WeightLearning.learn(anchors, objs, ds.m, cfg).weights.map(java.lang.Double.doubleToRawLongBits).toSeq
    val expected = bits(objects)
    // Another column order takes the collect() fallback; the others read the encoded rows.
    assert(bits(objects.toDF().select("vecs", "id").as[MMObject]) == expected)
    assert(bits(objects.repartition(7)) == expected)
    assert(bits(objects.orderBy($"id".desc)) == expected)
  }

  test("anchorGrad equals the boxed reference bit for bit on tie-heavy random rows") {
    // Few distinct IPs and weights, so joint IPs tie often and the index
    // tie-break of the hard negatives and of top-1 is exercised.
    val ip = Gen.oneOf(-1.0, -0.5, 0.0, 0.5, 1.0)
    val gradCase = for {
      nT <- Gen.choose(1, 20)
      m <- Gen.choose(1, 3)
      ips <- Gen.listOfN(nT, Gen.listOfN(m, ip))
      pos <- Gen.choose(0, nT - 1)
      w <- Gen.listOfN(m, Gen.oneOf(0.0, 0.25, 0.5, 1.0))
      negatives <- Gen.choose(0, 8)
      hard <- Gen.oneOf(true, false)
      qid <- Gen.choose(0L, 1000L)
    } yield (WeightLearning.AnchorIps(qid, pos, ips.map(_.toArray).toArray), w.toArray,
      WLConfig(negatives = negatives, hardNegatives = hard))
    def bits(r: (Array[Double], Double, Double)) =
      (r._1.map(java.lang.Double.doubleToRawLongBits).toSeq, java.lang.Double.doubleToRawLongBits(r._2), r._3)
    val joint = new Array[Double](32) // scratch reused across samples, longer than any T
    forAllGen(gradCase, trials = 300) { case (row, w, cfg) =>
      val expected = bits(ReferenceLearning.anchorGrad(w, row, cfg))
      assert(bits(WeightLearning.anchorGrad(w, row, cfg)) == expected)
      assert(bits(WeightLearning.anchorGrad(w, row, cfg, joint)) == expected)
    }
  }

  test("hard negatives reach at least the training quality of random negatives") {
    val hard = WeightLearning.learn(anchors, objects, ds.m,
      WLConfig(epochs = 40, hardNegatives = true))
    val rand = WeightLearning.learn(anchors, objects, ds.m,
      WLConfig(epochs = 40, hardNegatives = false))
    assert(hard.top1History.last >= rand.top1History.last - 0.05,
      s"hard=${hard.top1History.last} rand=${rand.top1History.last}")
  }

  test("learn rejects inputs that do not match m") {
    import spark.implicits._
    val obj = MMObject(0L, Seq(Seq(1.0, 0.0), Seq(0.0, 1.0)))
    def rejection(anchor: MMQuery, m: Int): String =
      intercept[IllegalArgumentException](
        WeightLearning.learn(Seq(anchor).toDS(), Seq(obj).toDS(), m, WLConfig(epochs = 1))).getMessage
    val ok = MMQuery(5L, gt = 0L, vecs = Seq(Seq(1.0, 0.0), Seq(0.0, 1.0)), comp = Seq.empty)
    assert(rejection(ok.copy(vecs = ok.vecs.take(1)), m = 1).contains("object 0: 2 modalities, m = 1"))
    assert(rejection(ok, m = 3).contains("object 0: 2 modalities, m = 3"))
    assert(rejection(ok.copy(vecs = ok.vecs :+ Seq(1.0, 0.0)), m = 2).contains("anchor 5: 3 slots for 2 modalities"))
    assert(rejection(ok.copy(vecs = Seq(Seq.empty, Seq.empty)), m = 2).contains("anchor 5 has no non-empty slot"))
  }

  test("anchorGrad rejects an anchor whose gt is missing from T") {
    val t = Array(1L -> Array(Array(1.0, 0.0), Array(0.0, 1.0)))
    val anchor = MMQuery(0L, gt = 99L, vecs = Seq(Seq(1.0, 0.0), Seq(0.0, 1.0)), comp = Seq.empty)
    intercept[IllegalArgumentException](
      WeightLearning.anchorGrad(Array(0.5, 0.5), WeightLearning.anchorIps(anchor, t, m = 2), WLConfig()))
  }
}
