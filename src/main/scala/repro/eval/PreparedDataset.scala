package repro.eval

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.Types._
import repro.core.WeightLearning
import repro.baseline.MultiStreamRetrieval
import repro.graph.{FusedIndex, FusedIndexBuilder, JointSearch, VectorStore}
import repro.mmdata.MultiModalSynth

/** One paper table's dataset, set up once for every row the table runs on
  * it: the cached object Dataset, its [[VectorStore]], and the m
  * single-modality (one-hot) indexes that MR and JE search, built on first
  * use only. Every index it builds uses `idx`. Opened only through
  * [[PreparedDataset.using]], which unpersists the objects afterwards.
  */
final class PreparedDataset private (
    spark: SparkSession,
    val ds: DatasetConfig,
    idx: IndexConfig,
    val objects: Dataset[MMObject],
) {

  val store: VectorStore = VectorStore.collect(objects)
  lazy val oneHotIndexes: Seq[FusedIndex] =
    (0 until ds.m).map(i => index(MultiStreamRetrieval.oneHot(ds.m, i)))

  /** Weights learned on `nAnchors` training anchors of `enc` under `mask`
    * (seedTag 1, disjoint from the eval queries' seedTag 0). */
  def learn(enc: EncoderConfig, mask: Seq[Boolean], nAnchors: Int,
            wl: WeightLearning.WLConfig): Array[Double] = {
    val anchors = MultiModalSynth.queries(spark, ds, enc, mask = mask, seedTag = 1L, nQueries = nAnchors)
    WeightLearning.learn(anchors, objects, ds.m, wl).weights
  }

  /** The eval queries of `enc`; `mask` empties the masked-out slots. */
  def queries(enc: EncoderConfig, mask: Seq[Boolean] = Nil): Dataset[MMQuery] =
    MultiModalSynth.queries(spark, ds, enc, mask = mask)

  /** The fused index under weights `w`. */
  def index(w: Array[Double]): FusedIndex = FusedIndexBuilder.build(spark, store, w, idx)

  /** Joint search of `queries` on `index` under `w`: top k from a result
    * set of max(l, k), collected. */
  def search(queries: Dataset[MMQuery], index: FusedIndex, w: Array[Double],
             k: Int, l: Int): Array[JointSearch.SearchResult] =
    JointSearch.search(queries, index, store, w, SearchConfig(k = k, l = math.max(l, k))).collect()

  /** MUST for one row: weights learned under `cfg.queryMask` (zeroed
    * outside it when `maskWeights`), the fused index built under them, and
    * the masked eval queries searched with l = `cfg.searchL`. Returns the
    * weights and each query's (gt, result ids). */
  def must(enc: EncoderConfig, cfg: AccuracyHarness.GridConfig, k: Int,
           maskWeights: Boolean = false): (Array[Double], Seq[(Long, Seq[Long])]) = {
    val learned = learn(enc, cfg.queryMask, cfg.nTrainAnchors, cfg.wl)
    val w = if (maskWeights) PreparedDataset.masked(learned, cfg.queryMask) else learned
    (w, search(queries(enc, cfg.queryMask), index(w), w, k, cfg.searchL).map(r => (r.gt, r.results)).toSeq)
  }

  /** MR on the one-hot indexes with l = max(`cfg.mrL`, k): each masked eval
    * query's (gt, result ids). */
  def mr(enc: EncoderConfig, cfg: AccuracyHarness.GridConfig, k: Int): Seq[(Long, Seq[Long])] =
    MultiStreamRetrieval.search(queries(enc, cfg.queryMask), oneHotIndexes, store, k, math.max(cfg.mrL, k))
      .collect().map(r => (r.gt, r.results)).toSeq
}

object PreparedDataset {

  /** Runs `f` on `ds` prepared with index settings `idx`, then unpersists
    * its objects, also when `f` throws. */
  def using[A](spark: SparkSession, ds: DatasetConfig, idx: IndexConfig = IndexConfig())(
      f: PreparedDataset => A): A = {
    val objects = MultiModalSynth.objects(spark, ds).cache()
    try f(new PreparedDataset(spark, ds, idx, objects)) finally objects.unpersist()
  }

  /** `w` with the weight of every modality outside `mask` set to 0. */
  def masked(w: Array[Double], mask: Seq[Boolean]): Array[Double] =
    w.zipWithIndex.map { case (x, i) => if (mask(i)) x else 0.0 }
}
