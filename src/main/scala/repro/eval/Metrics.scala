package repro.eval

import repro.core.{JointSimilarity, VecOps}
import repro.graph.VectorStore

/** Search-quality metrics (paper §II Performance Metric, Eq. 1 and Eq. 4). */
object Metrics {

  /** Recall@k(k') with a single ground-truth object (k' = 1): the fraction
    * of queries whose ground truth appears in the first k results. */
  def recallSingleGt(results: Seq[(Long, Seq[Long])], k: Int): Double = {
    require(results.nonEmpty)
    results.count { case (gt, ids) => ids.take(k).contains(gt) }.toDouble / results.size
  }

  /** Recall@k(k') against explicit ground-truth sets: mean |R ∩ G| / |G|. */
  def recallAgainstSets(results: Seq[(Seq[Long], Set[Long])], k: Int): Double = {
    require(results.nonEmpty)
    results.map { case (ids, g) =>
      require(g.nonEmpty)
      ids.take(k).count(g.contains).toDouble / g.size
    }.sum / results.size
  }

  /** Mean SME (Eq. 4) of the top-1 result: 1 − IP(φ₀(a⁰), φ₀(r⁰)).
    * Queries with an empty result list contribute the worst case (1.0). */
  def meanSme(results: Seq[(Long, Seq[Long])], store: VectorStore): Double = {
    require(results.nonEmpty)
    results.map { case (gt, ids) =>
      ids.headOption match {
        case Some(r) => JointSimilarity.sme(store.targetVec(gt), store.targetVec(r))
        case None    => 1.0
      }
    }.sum / results.size
  }

  /** Mean per-modality IP between query vectors and the top-1 result's
    * object vectors (Table IX: user-defined weight preference check). */
  def meanModalityIp(
      results: Seq[(Array[Array[Double]], Seq[Long])],
      store: VectorStore,
      modality: Int,
  ): Double = {
    require(results.nonEmpty)
    results.map { case (qv, ids) =>
      VecOps.dot(qv(modality), store(ids.head)(modality))
    }.sum / results.size
  }

  /** Queries per second from a batch wall time. */
  def qps(nQueries: Int, elapsedMs: Double): Double =
    if (elapsedMs <= 0) Double.PositiveInfinity else nQueries * 1000.0 / elapsedMs

  /** Times a block, returning (result, elapsed ms). */
  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e6)
  }
}
