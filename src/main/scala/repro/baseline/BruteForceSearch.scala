package repro.baseline

import org.apache.spark.sql.Dataset
import repro.core.JointSimilarity
import repro.core.Types._

/** Exact (brute-force) joint-similarity search — the paper's MUST-- / MR--
  * comparators and the source of exact ground truth (Recall@k(k) targets,
  * graph-quality references).
  *
  * Implemented as a genuine distributed scan-and-aggregate: the (small)
  * query batch is broadcast, every partition of the object Dataset folds
  * its objects into per-query bounded top-k heaps, and partial heaps are
  * merged with `treeReduce`. Cost is Θ(n · #q · m · dim) — the linear
  * growth Table VII measures.
  */
object BruteForceSearch {

  final case class ExactResult(qid: Long, gt: Long, results: Seq[Long], ips: Seq[Double])

  /** Exact top-k per query under joint weights `w`. */
  def topK(
      queries: Array[MMQuery],
      objects: Dataset[MMObject],
      w: Array[Double],
      k: Int,
  ): Array[ExactResult] = {
    require(queries.nonEmpty)
    val spark = objects.sparkSession
    val bq = spark.sparkContext.broadcast(queries.map(q => (q.qid, q.gt, q.vecs.map(_.toArray).toArray)))
    val bw = spark.sparkContext.broadcast(w)

    // Per-partition: one bounded min-heap per query (worst on top).
    // NOT implicit: an implicit reversed ordering would silently hijack the
    // sortBy in the merge step below.
    type Heap = scala.collection.mutable.PriorityQueue[(Double, Long)]
    val minOrd: Ordering[(Double, Long)] =
      Ordering.Tuple2(Ordering[Double], Ordering[Long]).reverse
    def newHeaps(nq: Int): Array[Heap] =
      Array.fill(nq)(scala.collection.mutable.PriorityQueue.empty[(Double, Long)](minOrd))
    def push(h: Heap, ip: Double, id: Long): Unit = {
      if (h.size < k) h.enqueue((ip, id))
      else if (minOrd.lt((ip, id), h.head)) { h.dequeue(); h.enqueue((ip, id)) } // (ip,id) beats worst
    }

    val merged = try {
      objects.rdd
        .mapPartitions { it =>
          val qs = bq.value; val ww = bw.value
          val heaps = newHeaps(qs.length)
          it.foreach { o =>
            val ov = o.vecs.map(_.toArray).toArray
            var qi = 0
            while (qi < qs.length) {
              push(heaps(qi), JointSimilarity.jointIP(ww, qs(qi)._3, ov), o.id)
              qi += 1
            }
          }
          Iterator.single(heaps.map(_.dequeueAll.reverse.toArray)) // best-first
        }
        .treeReduce { (a, b) =>
          a.indices.map { qi =>
            (a(qi) ++ b(qi)).sortBy { case (ip, id) => (-ip, id) }.take(k).toArray
          }.toArray
        }
    } finally { bq.destroy(); bw.destroy() }
    queries.indices.map { qi =>
      val top = merged(qi)
      ExactResult(queries(qi).qid, queries(qi).gt, top.map(_._2).toSeq, top.map(_._1).toSeq)
    }.toArray
  }
}
