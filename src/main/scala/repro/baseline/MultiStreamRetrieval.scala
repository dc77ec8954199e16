package repro.baseline

import org.apache.spark.sql.Dataset
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

  /** Driver-free kernel: per-modality top-l searches + intersection merge. */
  def mergeKernel(
      q: MMQuery,
      indexes: Array[FusedIndex],
      store: VectorStore,
      k: Int,
      l: Int,
  ): MrResult = {
    val m = indexes.length
    val qv = q.vecs.map(_.toArray).toArray
    val active = (0 until m).filter(i => i < qv.length && qv(i).length > 0)
    require(active.nonEmpty, s"query ${q.qid} has no active modality")

    val lists: Seq[Array[Int]] = active.map { i =>
      val w = oneHot(m, i)
      val (ids, _, _, _, _) =
        JointSearch.searchKernel(qv, q.qid, w, indexes(i), store, SearchConfig(k = l, l = l))
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

  /** Distributed MR search over a query Dataset. */
  def search(
      queries: Dataset[MMQuery],
      indexes: Seq[FusedIndex],
      store: VectorStore,
      k: Int,
      l: Int,
  ): Dataset[MrResult] = {
    val spark = queries.sparkSession
    import spark.implicits._
    val bIdx = spark.sparkContext.broadcast(indexes.toArray)
    val bStore = spark.sparkContext.broadcast(store)
    queries.mapPartitions { it =>
      val idxs = bIdx.value; val st = bStore.value
      it.map(q => mergeKernel(q, idxs, st, k, l))
    }
  }
}
