package repro.eval

import org.apache.spark.sql.SparkSession
import repro.core.WeightLearning
import repro.core.Types._
import repro.baseline.JointEmbeddingSearch

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

  /** One MUST row: learned weights, the fused index, joint search. */
  def mustRow(p: PreparedDataset, enc: EncoderConfig, cfg: GridConfig): Row = {
    val (w, results) = p.must(enc, cfg, cfg.ks.max)
    row(p, "MUST", enc, cfg, results, w.toSeq)
  }

  /** One MR row on the shared one-hot indexes. */
  def mrRow(p: PreparedDataset, enc: EncoderConfig, cfg: GridConfig): Row =
    row(p, "MR", enc, cfg, p.mr(enc, cfg, cfg.ks.max))

  /** One JE row: composition vector on the target-modality index. */
  def jeRow(p: PreparedDataset, enc: EncoderConfig, cfg: GridConfig): Row = {
    val kMax = cfg.ks.max
    val res = JointEmbeddingSearch
      .search(p.queries(enc, cfg.queryMask), p.oneHotIndexes.head, p.store, p.ds.m,
        SearchConfig(k = kMax, l = math.max(cfg.searchL, kMax)))
      .collect()
    row(p, "JE", enc, cfg, res.map(r => (r.gt, r.results)).toSeq)
  }

  /** Recall@k(1) at each of `cfg.ks` and the mean SME of one framework's
    * (gt, result ids) pairs. */
  private def row(p: PreparedDataset, framework: String, enc: EncoderConfig, cfg: GridConfig,
                  results: Seq[(Long, Seq[Long])], learnedWeights: Seq[Double] = Nil): Row =
    Row(framework, enc.name, cfg.ks.map(k => k -> Metrics.recallSingleGt(results, k)),
      Metrics.meanSme(results, p.store), learnedWeights)

  /** Full grid: JE rows then MR rows then MUST rows, paper-table order. */
  def runGrid(
      spark: SparkSession,
      ds: DatasetConfig,
      mrMustEncoders: Seq[EncoderConfig],
      jeEncoders: Seq[EncoderConfig],
      cfg: GridConfig = GridConfig(),
  ): Seq[Row] =
    PreparedDataset.using(spark, ds, cfg.idx) { p =>
      jeEncoders.map(jeRow(p, _, cfg)) ++ mrMustEncoders.map(mrRow(p, _, cfg)) ++
        mrMustEncoders.map(mustRow(p, _, cfg))
    }
}
