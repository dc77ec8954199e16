package repro.baseline

import org.apache.spark.sql.Dataset
import repro.core.Types._
import repro.graph.VectorStore

/** Exact (brute-force) joint-similarity search — the paper's MUST-- / MR--
  * comparators and the source of exact ground truth (Recall@k(k) targets,
  * graph-quality references).
  *
  * A driver scan over the in-memory [[VectorStore]], as the paper's
  * single-node comparator is: each query is scored alone against every
  * object ([[VectorStore.topK]], a bounded top-k by joint IP descending,
  * then id), the queries in parallel on the driver's cores. Cost is
  * Θ(n · #q · m · dim) — the linear growth Table VII measures.
  */
object BruteForceSearch {

  final case class ExactResult(qid: Long, gt: Long, results: Seq[Long], ips: Seq[Double])

  /** Exact top-k per query under joint weights `w`, in query order. */
  def topK(
      queries: Array[MMQuery],
      store: VectorStore,
      w: Array[Double],
      k: Int,
  ): Array[ExactResult] = {
    require(queries.nonEmpty, "no queries")
    VectorStore.parallelMap(queries.length) { i =>
      val q = queries(i)
      val (ids, ips) = store.topK(q.vecs.map(_.toArray).toArray, w, k)
      ExactResult(q.qid, q.gt, ids.map(_.toLong).toSeq, ips.toSeq)
    }
  }

  /** [[topK]] over the store collected from `objects` (one Spark job). */
  def topK(
      queries: Array[MMQuery],
      objects: Dataset[MMObject],
      w: Array[Double],
      k: Int,
  ): Array[ExactResult] = topK(queries, VectorStore.collect(objects), w, k)
}
