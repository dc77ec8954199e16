package repro.baseline

import org.apache.spark.sql.{Dataset, Encoder}
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import repro.core.Types._
import repro.graph.{FusedIndex, JointSearch, VectorStore}

/** Baseline 1: Multi-streamed Retrieval (paper §III, Fig. 2 upper-left).
  *
  * Each active query modality runs an independent single-modality vector
  * search (top-l candidates on that modality's own proximity-graph index —
  * built with a one-hot weight vector, exactly "m vector indexes on S"),
  * and the candidate sets are merged by intersection, the paper's choice
  * for MSTM where modality importance is unknown.
  *
  * Ranking within the intersection uses the rank-sum across the per-
  * modality candidate lists; when the intersection is smaller than k the
  * remainder is filled from the target-modality list in order (some
  * deterministic completion is required to return exactly k results —
  * the paper notes precisely this difficulty, which is what caps MR's
  * recall as l grows, Fig. 6).
  */
object MultiStreamRetrieval {

  final case class MrResult(qid: Long, gt: Long, results: Seq[Long], interSize: Int)

  /** One-hot weight vector for modality `i` of `m`. */
  def oneHot(m: Int, i: Int): Array[Double] = Array.tabulate(m)(j => if (j == i) 1.0 else 0.0)

  /** Driver-free kernel: per-modality top-l searches + intersection merge.
    * It rejects a query with no active modality but checks nothing else of
    * it: [[search]] validates each query before its kernel runs. */
  def mergeKernel(
      q: MMQuery,
      indexes: Array[FusedIndex],
      store: VectorStore,
      k: Int,
      l: Int,
  ): MrResult = {
    val m = indexes.length
    val qv = q.vecs.map(_.toArray).toArray
    val active = activeModalities(qv, m, q.qid)

    val lists: Seq[Array[Int]] = active.map { i =>
      val w = oneHot(m, i)
      val (ids, _, _, _) = JointSearch.route(qv, q.qid, w, indexes(i), store, SearchConfig(k = l, l = l))
      ids
    }

    // id → rank in each candidate list; a list's ids are distinct.
    val ranks: Seq[Map[Int, Int]] = lists.map(_.zipWithIndex.toMap)
    val inter = ranks.map(_.keySet).reduce(_ intersect _)
    // rank-sum over the candidate lists (inter only, so every id has a rank)
    val ranked = inter.toSeq.sortBy(id => (ranks.map(_(id)).sum, id))
    val fill = lists.head.filterNot(inter.contains)
    val top = (ranked ++ fill).take(k)
    MrResult(q.qid, q.gt, top.map(_.toLong), inter.size)
  }

  /** The indexes of `qv`'s non-empty slots among the first `m`; rejects,
    * naming the qid, a query with none. */
  private def activeModalities(qv: Array[Array[Double]], m: Int, qid: Long): Seq[Int] = {
    val active = (0 until m).filter(i => i < qv.length && qv(i).length > 0)
    require(active.nonEmpty, s"query $qid has no active modality")
    active
  }

  private lazy val resultEncoder: Encoder[MrResult] = ExpressionEncoder[MrResult]()

  /** MR search of every query in `queries` by [[mergeKernel]], on the
    * driver, as [[JointSearch.search]] runs: eager, so a query that
    * [[mergeKernel]] would reject throws `IllegalArgumentException` naming
    * its qid here; no Spark job for a local query Dataset and one of at
    * most `defaultParallelism` tasks to read any other; results in query
    * order, as a local Dataset. */
  def search(
      queries: Dataset[MMQuery],
      indexes: Seq[FusedIndex],
      store: VectorStore,
      k: Int,
      l: Int,
  ): Dataset[MrResult] = {
    val idxs = indexes.toArray
    JointSearch.inProcess(queries, resultEncoder) { q =>
      // Every active slot passes validateQuery under its one-hot weights
      // if one does: only the weighted-slot check reads w.
      val qv = q.vecs.map(_.toArray).toArray
      val first = activeModalities(qv, idxs.length, q.qid).head
      JointSearch.validateQuery(qv, q.qid, oneHot(idxs.length, first), store)
      q
    }(mergeKernel(_, idxs, store, k, l))
  }
}
