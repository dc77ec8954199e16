package repro.eval

import org.apache.spark.sql.SparkSession
import repro.core.Types._
import repro.core.WeightLearning
import repro.baseline.BruteForceSearch
import repro.graph.{FusedIndex, JointSearch, VectorStore}
import repro.mmdata.Datasets

/** Efficiency / scalability runner (paper Tables VII and XII).
  *
  * Ground truth here is the *exact* joint-similarity top-k (Recall@k(k)),
  * obtained from the brute-force scan — the same scan that plays the role
  * of MUST--. Both wall-clocks are driver-side, on nproc threads over the
  * same in-memory store, as the paper's single-node C++ kernels run: MUST
  * is [[JointSearch.search]], the brute force [[BruteForceSearch.topK]].
  * Each row also reports the algorithmic cost driver: the number of
  * modality-level dot products (per query), whose growth (linear for brute
  * force, ~flat for the graph) is the claim Table VII makes.
  */
object EfficiencyHarness {

  final case class ScaleRow(
      n: Long,
      buildMs: Double,
      bruteMs: Double,
      mustMs: Double,
      lUsed: Int,
      recall: Double,
      bruteDotsPerQuery: Long,
      mustDotsPerQuery: Long,
  )

  final case class LRow(l: Int, recall: Double, batchMs: Double, dotsPerQuery: Long)

  /** One prepared scale point: weights learned, fused index built. */
  final case class Prepared(
      ds: DatasetConfig,
      store: VectorStore,
      index: FusedIndex,
      weights: Array[Double],
      buildMs: Double,
      queries: Array[MMQuery],
      exact: Array[BruteForceSearch.ExactResult],
      bruteMs: Double,
  )

  def prepare(spark: SparkSession, n: Long, nQueries: Int, k: Int,
              idx: IndexConfig = IndexConfig()): Prepared = {
    val ds = Datasets.imageText(n, nQueries)
    val enc = Datasets.imageTextEncoder
    PreparedDataset.using(spark, ds, idx) { p =>
      val w = p.learn(enc, Nil, 200, WeightLearning.WLConfig())
      val (index, buildMs) = Metrics.timed(p.index(w))
      val queries = p.queries(enc).collect()
      val (exact, bruteMs) = Metrics.timed(BruteForceSearch.topK(queries, p.store, w, k))
      Prepared(ds, p.store, index, w, buildMs, queries, exact, bruteMs)
    }
  }

  /** Runs MUST at one l over a prepared scale point; returns the l-row. */
  def runAtL(spark: SparkSession, p: Prepared, k: Int, l: Int): LRow = {
    import spark.implicits._
    val qDs = spark.createDataset(p.queries.toSeq)
    val (res, ms) = Metrics.timed(
      JointSearch.search(qDs, p.index, p.store, p.weights, SearchConfig(k = k, l = l)).collect())
    val gtSets = p.exact.map(e => e.qid -> e.results.toSet).toMap
    val recall = Metrics.recallAgainstSets(
      res.map(r => (r.results, gtSets(r.qid))).toSeq, k)
    val dots = if (res.isEmpty) 0L else res.map(_.dotProducts).sum / res.length
    LRow(l, recall, ms, dots)
  }

  /** Table VII: raise l until Recall@k(k) passes `recallTarget`, then
    * report brute-force vs graph time at that operating point. */
  def scalePoint(spark: SparkSession, n: Long, nQueries: Int = 200, k: Int = 10,
                 recallTarget: Double = 0.99,
                 lLadder: Seq[Int] = Seq(40, 80, 160, 320, 640, 1280, 2560)): ScaleRow = {
    // γ = 24 ≈ the paper's γ = 30 default (App. H): graph navigability at
    // the largest scale point needs a denser graph than the unit-test γ.
    val p = prepare(spark, n, nQueries, k, IndexConfig(gamma = 24))
    var row = runAtL(spark, p, k, lLadder.head)
    var i = 1
    while (row.recall < recallTarget && i < lLadder.length) {
      row = runAtL(spark, p, k, lLadder(i)); i += 1
    }
    ScaleRow(n, p.buildMs, p.bruteMs, row.batchMs, row.l, row.recall,
      bruteDotsPerQuery = p.ds.n * p.ds.m, mustDotsPerQuery = row.dotsPerQuery)
  }
}
