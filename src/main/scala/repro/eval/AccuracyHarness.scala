package repro.eval

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.WeightLearning
import repro.core.Types._
import repro.baseline.{JointEmbeddingSearch, MultiStreamRetrieval}
import repro.graph.{FusedIndex, FusedIndexBuilder, JointSearch, VectorStore}
import repro.mmdata.MultiModalSynth

/** Shared runner for the accuracy tables (paper Tables III–VI, VIII, X,
  * XIX–XXI): for one dataset analog it executes the framework × encoder
  * grid — JE on composition vectors, MR on per-modality one-hot indexes,
  * MUST on the fused index with learned weights — and returns one row per
  * (framework, encoder) with Recall@k(1) at the requested cut-offs and the
  * mean SME.
  */
object AccuracyHarness {

  final case class Row(
      framework: String,
      encoder: String,
      recalls: Seq[(Int, Double)],
      sme: Double,
      learnedWeights: Seq[Double], // empty for JE / MR
  ) {
    def recallAt(k: Int): Double = recalls.find(_._1 == k).get._2
  }

  final case class GridConfig(
      ks: Seq[Int] = Seq(1, 5, 10),
      // Accuracy tables measure similarity quality, not routing depth, so
      // l is generous (graph recall vs exact ≈ 1) — the paper tunes l to
      // its operating point the same way (App. I).
      searchL: Int = 150,      // l for MUST / JE joint search
      mrL: Int = 150,          // per-modality candidate list size for MR
      nTrainAnchors: Int = 250,
      idx: IndexConfig = IndexConfig(),
      wl: WeightLearning.WLConfig = WeightLearning.WLConfig(),
      queryMask: Seq[Boolean] = Nil, // restricts query modalities (t < m tables)
  )

  /** Context holding the per-dataset artifacts shared across encoder rows:
    * object vectors and the m single-modality (one-hot) indexes used by MR
    * and JE. Build once per dataset, reuse for every encoder row. */
  final class DatasetContext(
      val ds: DatasetConfig,
      val objects: Dataset[MMObject],
      val store: VectorStore,
      val oneHotIndexes: Seq[FusedIndex],
  )

  def prepare(spark: SparkSession, ds: DatasetConfig, idx: IndexConfig = IndexConfig()): DatasetContext = {
    val objects = MultiModalSynth.objects(spark, ds).cache()
    objects.count()
    val store = VectorStore.collect(objects)
    val oneHot = (0 until ds.m).map { i =>
      FusedIndexBuilder.build(spark, store, MultiStreamRetrieval.oneHot(ds.m, i), idx)
    }
    new DatasetContext(ds, objects, store, oneHot)
  }

  /** Learns weights for one encoder row (training anchors use seedTag 1,
    * disjoint from the eval queries' seedTag 0). */
  def learnWeights(
      spark: SparkSession,
      ctx: DatasetContext,
      enc: EncoderConfig,
      cfg: GridConfig,
  ): WeightLearning.TrainResult = {
    val anchors = MultiModalSynth.queries(
      spark, ctx.ds, enc, mask = cfg.queryMask, seedTag = 1L, nQueries = cfg.nTrainAnchors)
    WeightLearning.learn(anchors, ctx.objects, ctx.ds.m, cfg.wl)
  }

  /** One MUST row: learn weights, build the fused index, joint search. */
  def mustRow(spark: SparkSession, ctx: DatasetContext, enc: EncoderConfig,
              cfg: GridConfig): Row = {
    val wl = learnWeights(spark, ctx, enc, cfg)
    val fused = FusedIndexBuilder.build(spark, ctx.store, wl.weights, cfg.idx)
    val evalQ = MultiModalSynth.queries(spark, ctx.ds, enc, mask = cfg.queryMask)
    val kMax = cfg.ks.max
    val res = JointSearch
      .search(evalQ, fused, ctx.store, wl.weights, SearchConfig(k = kMax, l = math.max(cfg.searchL, kMax)))
      .collect()
    val pairs = res.map(r => (r.gt, r.results)).toSeq
    Row("MUST", enc.name,
      cfg.ks.map(k => k -> Metrics.recallSingleGt(pairs, k)),
      Metrics.meanSme(pairs, ctx.store),
      wl.weights.toSeq)
  }

  /** One MR row on the shared one-hot indexes. */
  def mrRow(spark: SparkSession, ctx: DatasetContext, enc: EncoderConfig,
            cfg: GridConfig): Row = {
    val evalQ = MultiModalSynth.queries(spark, ctx.ds, enc, mask = cfg.queryMask)
    val kMax = cfg.ks.max
    val res = MultiStreamRetrieval
      .search(evalQ, ctx.oneHotIndexes, ctx.store, kMax, math.max(cfg.mrL, kMax))
      .collect()
    val pairs = res.map(r => (r.gt, r.results)).toSeq
    Row("MR", enc.name,
      cfg.ks.map(k => k -> Metrics.recallSingleGt(pairs, k)),
      Metrics.meanSme(pairs, ctx.store), Nil)
  }

  /** One JE row: composition vector on the target-modality index. */
  def jeRow(spark: SparkSession, ctx: DatasetContext, enc: EncoderConfig,
            cfg: GridConfig): Row = {
    val evalQ = MultiModalSynth.queries(spark, ctx.ds, enc, mask = cfg.queryMask)
    val kMax = cfg.ks.max
    val res = JointEmbeddingSearch
      .search(evalQ, ctx.oneHotIndexes.head, ctx.store, ctx.ds.m,
        SearchConfig(k = kMax, l = math.max(cfg.searchL, kMax)))
      .collect()
    val pairs = res.map(r => (r.gt, r.results)).toSeq
    Row("JE", enc.name,
      cfg.ks.map(k => k -> Metrics.recallSingleGt(pairs, k)),
      Metrics.meanSme(pairs, ctx.store), Nil)
  }

  /** Full grid: JE rows then MR rows then MUST rows, paper-table order. */
  def runGrid(
      spark: SparkSession,
      ds: DatasetConfig,
      mrMustEncoders: Seq[EncoderConfig],
      jeEncoders: Seq[EncoderConfig],
      cfg: GridConfig = GridConfig(),
  ): Seq[Row] = {
    val ctx = prepare(spark, ds, cfg.idx)
    try {
      val je = jeEncoders.map(e => jeRow(spark, ctx, e, cfg))
      val mr = mrMustEncoders.map(e => mrRow(spark, ctx, e, cfg))
      val must = mrMustEncoders.map(e => mustRow(spark, ctx, e, cfg))
      je ++ mr ++ must
    } finally ctx.objects.unpersist()
  }
}
