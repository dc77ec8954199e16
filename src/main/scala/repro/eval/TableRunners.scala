package repro.eval

import org.apache.spark.sql.SparkSession
import repro.core.Types._
import repro.graph.{FusedIndexBuilder, GraphQuality}
import repro.mmdata.Datasets

/** One runner per paper table (Tables III–XXI). Each is run by its
  * benchmark suite in `bench/`, which prints the measured rows next to the
  * paper's and asserts the paper's qualitative shape. Paper numbers are
  * recorded next to measured ones in EXPERIMENTS.md.
  */
object TableRunners {

  /** Default grid knobs for the accuracy tables (n≈2400 analogs). */
  val accuracyCfg: AccuracyHarness.GridConfig = AccuracyHarness.GridConfig()

  // ---- Tables III–VI: accuracy grids --------------------------------

  def tableIII(spark: SparkSession): Seq[AccuracyHarness.Row] =
    AccuracyHarness.runGrid(spark, Datasets.mitStates,
      Datasets.mitStatesEncoders, Datasets.mitStatesJeEncoders, accuracyCfg)

  def tableIV(spark: SparkSession): Seq[AccuracyHarness.Row] =
    AccuracyHarness.runGrid(spark, Datasets.celebA,
      Datasets.celebAEncoders, Datasets.celebAJeEncoders, accuracyCfg)

  def tableV(spark: SparkSession): Seq[AccuracyHarness.Row] =
    AccuracyHarness.runGrid(spark, Datasets.shoppingTshirt,
      Datasets.shoppingEncoders, Datasets.shoppingJeEncoders, accuracyCfg)

  def tableVI(spark: SparkSession): Seq[AccuracyHarness.Row] =
    AccuracyHarness.runGrid(spark, Datasets.msCoco,
      Datasets.msCocoEncoders, Datasets.msCocoJeEncoders,
      accuracyCfg.copy(ks = Seq(10, 50, 100)))

  def tableXXI(spark: SparkSession): Seq[AccuracyHarness.Row] =
    AccuracyHarness.runGrid(spark, Datasets.shoppingBottoms,
      Datasets.shoppingEncoders, Datasets.shoppingJeEncoders, accuracyCfg)

  // ---- Table VII: data-volume scalability ---------------------------

  /** Scale analogs of the paper's 1M..16M sweep (DESIGN.md §1). */
  val scaleAnalogs: Seq[(String, Long)] =
    Seq("1M" -> 3000L, "2M" -> 6000L, "4M" -> 12000L, "8M" -> 24000L, "16M" -> 48000L)

  def tableVII(spark: SparkSession): Seq[(String, EfficiencyHarness.ScaleRow)] =
    scaleAnalogs.map { case (label, n) =>
      label -> EfficiencyHarness.scalePoint(spark, n, nQueries = 200, k = 10)
    }

  // ---- Table VIII: number of modalities -----------------------------

  final case class ModalityRow(m: Int, mustRecall10: Double, mrRecall10: Double)

  /** Recall vs number of modalities on the CelebA+ analog: queries use the
    * first m' modalities; MUST zeroes the weights of unused modalities
    * before the build (the paper's t = m per run). */
  def tableVIII(spark: SparkSession): Seq[ModalityRow] = {
    val ds = Datasets.celebAPlus
    val enc = Datasets.celebAPlusEncoder
    PreparedDataset.using(spark, ds, accuracyCfg.idx) { p =>
      Seq(2, 3, 4).map { mPrime =>
        // Longer training (wider weight landscape at m = 4) and a larger
        // result set l: graph routing needs a deeper beam as the joint
        // space's intrinsic dimensionality grows with m.
        val cfg = accuracyCfg.copy(queryMask = (0 until ds.m).map(_ < mPrime), searchL = 200,
          wl = accuracyCfg.wl.copy(epochs = 150, lr = 0.08))
        ModalityRow(mPrime,
          Metrics.recallSingleGt(p.must(enc, cfg, k = 10, maskWeights = true)._2, 10),
          Metrics.recallSingleGt(p.mr(enc, cfg, k = 10), 10))
      }
    }
  }

  // ---- Table IX: user-defined weights -------------------------------

  final case class UserWeightRow(w0: Double, w1: Double, ip0: Double, ip1: Double)

  /** User-defined weight sweep on MIT-States (best MUST encoder): the
    * fused index is built once with the learned weights; the search-time
    * weights are the user's (§VII-B Option 2 of Fig. 4(g)). */
  def tableIX(spark: SparkSession): Seq[UserWeightRow] = {
    val enc = Datasets.mitStatesEncoders.find(_.name == "ResNet50+LSTM").get
    PreparedDataset.using(spark, Datasets.mitStates, accuracyCfg.idx) { p =>
      val fused = p.index(p.learn(enc, Nil, accuracyCfg.nTrainAnchors, accuracyCfg.wl))
      val qv = p.queries(enc).collect().map(q => q.qid -> q.vecs.map(_.toArray).toArray).toMap
      Seq(0.5, 0.6, 0.7, 0.8, 0.9).map { w0 =>
        val pairs = p.search(p.queries(enc), fused, Array(w0, 1.0 - w0), k = 1, accuracyCfg.searchL)
          .map(r => (qv(r.qid), r.results)).toSeq
        UserWeightRow(w0, 1.0 - w0,
          Metrics.meanModalityIp(pairs, p.store, 0),
          Metrics.meanModalityIp(pairs, p.store, 1))
      }
    }
  }

  // ---- Tables X / XIX / XX: single query modality -------------------

  final case class SingleModalityRow(dataset: String, modality: String, encoder: String,
                                     recalls: Seq[(Int, Double)]) {
    def recallAt(k: Int): Double = recalls.find(_._1 == k).get._2
  }

  /** t = 1 queries: the fused index is built on all modalities with
    * learned weights; search masks the absent modality's weight to zero
    * (§VII-B). `encoders` are the encoder rows to run. */
  def singleModality(spark: SparkSession, ds: DatasetConfig,
                     encoders: Seq[EncoderConfig], ks: Seq[Int]): Seq[SingleModalityRow] =
    PreparedDataset.using(spark, ds, accuracyCfg.idx) { p =>
      // One fused index per encoder row (learned on full multimodal anchors).
      encoders.flatMap { enc =>
        val w = p.learn(enc, Nil, accuracyCfg.nTrainAnchors, accuracyCfg.wl)
        val fused = p.index(w)
        Seq("Target" -> 0, "Auxiliary" -> 1).map { case (label, i) =>
          val mask = (0 until ds.m).map(_ == i)
          val res = p.search(p.queries(enc, mask), fused, PreparedDataset.masked(w, mask), ks.max,
            accuracyCfg.searchL)
          val pairs = res.map(r => (r.gt, r.results)).toSeq
          SingleModalityRow(ds.name, label, enc.name, ks.map(k => k -> Metrics.recallSingleGt(pairs, k)))
        }
      }
    }

  def tableX(spark: SparkSession): Seq[SingleModalityRow] =
    singleModality(spark, Datasets.mitStates,
      Seq(Datasets.mitStatesEncoders.find(_.name == "ResNet50+LSTM").get,
          Datasets.mitStatesEncoders.find(_.name == "ResNet50+Transformer").get),
      ks = Seq(1, 5, 10))

  def tableXIXXX(spark: SparkSession): Seq[SingleModalityRow] =
    singleModality(spark, Datasets.celebA,
      Seq(Datasets.celebAEncoders.find(_.name == "ResNet17+Encoding").get), Seq(1, 5, 10)) ++
    singleModality(spark, Datasets.shoppingTshirt,
      Seq(Datasets.shoppingEncoders.find(_.name == "ResNet17+Encoding").get), Seq(1, 5, 10))

  // ---- Table XI: graph quality vs NNDescent iterations --------------

  final case class GraphQualityRow(dataset: String, epsilon: Int, quality: Double)

  def tableXI(spark: SparkSession, n: Long = 3000L): Seq[GraphQualityRow] = {
    val cases = Seq(
      ("ImageText1M", Datasets.imageText(n), Datasets.imageTextEncoder),
      ("AudioText1M", Datasets.audioText(n), Datasets.audioTextEncoder),
      ("VideoText1M", Datasets.videoText(n), Datasets.videoTextEncoder),
    )
    cases.flatMap { case (label, ds, enc) =>
      PreparedDataset.using(spark, ds) { p =>
        val w = p.learn(enc, Nil, 150, accuracyCfg.wl)
        val gamma = accuracyCfg.idx.gamma
        val exact = GraphQuality.exactNeighbors(p.store, w, gamma)
        Seq(1, 2, 3).map { eps =>
          val adj = FusedIndexBuilder.nnDescentGraph(p.store, w, gamma, eps)
          GraphQualityRow(label, eps, GraphQuality.quality(adj, exact, gamma))
        }
      }
    }
  }

  // ---- Table XII: result-set size l ---------------------------------

  /** Paper l values (n = 1M) next to our scaled ladder (n = 8k). */
  val lLadder: Seq[(Int, Int)] =
    Seq(700 -> 20, 1000 -> 40, 1500 -> 80, 2000 -> 160, 4000 -> 320)

  def tableXII(spark: SparkSession): Seq[(Int, Int, EfficiencyHarness.LRow)] = {
    val p = EfficiencyHarness.prepare(spark, n = 8000L, nQueries = 200, k = 10)
    lLadder.map { case (paperL, ourL) =>
      (paperL, ourL, EfficiencyHarness.runAtL(spark, p, k = 10, l = ourL))
    }
  }

  // ---- Tables XIII–XVIII: learned weights ---------------------------

  final case class WeightsRow(dataset: String, encoder: String, weights: Seq[Double])

  def tableXIIIToXVIII(spark: SparkSession): Seq[WeightsRow] = {
    def learnFor(ds: DatasetConfig, encs: Seq[EncoderConfig]): Seq[WeightsRow] =
      PreparedDataset.using(spark, ds) { p =>
        encs.map(enc => WeightsRow(ds.name, enc.name,
          p.learn(enc, Nil, accuracyCfg.nTrainAnchors, accuracyCfg.wl).toSeq))
      }
    learnFor(Datasets.mitStates, Datasets.mitStatesEncoders) ++          // XIII
      learnFor(Datasets.celebA, Datasets.celebAEncoders) ++              // XIV
      learnFor(Datasets.shoppingTshirt, Datasets.shoppingEncoders) ++    // XV
      learnFor(Datasets.msCoco, Datasets.msCocoEncoders) ++              // XVI
      learnFor(Datasets.celebAPlus, Seq(Datasets.celebAPlusEncoder)) ++  // XVII
      learnFor(Datasets.imageText(3000L), Seq(Datasets.imageTextEncoder)) ++ // XVIII
      learnFor(Datasets.audioText(3000L), Seq(Datasets.audioTextEncoder)) ++
      learnFor(Datasets.videoText(3000L), Seq(Datasets.videoTextEncoder))
  }
}
