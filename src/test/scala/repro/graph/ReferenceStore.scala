package repro.graph

import scala.collection.mutable
import repro.core.{JointSimilarity, VecOps}

/** The scans as they stood before `VectorStore` held one flat array: the
  * Lemma-4 partial scan over one object's nested per-modality arrays, and
  * the exact top-k as a `PriorityQueue` of boxed (ip, id) pairs over the
  * nested store. Kept verbatim as the reference that `VectorStoreSpec`
  * compares the flat scans with, bit by bit.
  */
object ReferenceStore {

  /** `o`'s exact joint IP with `q` under `w`, or the upper bound at which
    * the scan fell to/below `threshold`, with (pruned, scanned). */
  def partialScan(w: Array[Double], q: Array[Array[Double]], o: Array[Array[Double]], threshold: Double): (Double, Boolean, Int) = {
    val active = (0 until math.min(q.length, w.length)).filter(i => q(i).length > 0 && w(i) != 0.0).toArray
    val rest = {
      var remaining = 0.0
      active.foreach(i => remaining += math.abs(w(i)))
      active.map { i => remaining -= math.abs(w(i)); remaining }
    }
    var partial = 0.0
    var j = 0
    while (j < active.length) {
      val i = active(j)
      partial += w(i) * VecOps.dot(q(i), o(i))
      j += 1
      if (j < active.length && partial + rest(j - 1) <= threshold) return (partial + rest(j - 1), true, j)
    }
    (partial, false, j)
  }

  private val bestFirst: Ordering[(Double, Int)] = new Ordering[(Double, Int)] {
    def compare(a: (Double, Int), b: (Double, Int)): Int = {
      val c = java.lang.Double.compare(b._1, a._1)
      if (c != 0) c else Integer.compare(a._2, b._2)
    }
  }

  /** The (at most) `k` ids of `vecs` other than `skip` of highest joint IP
    * with `q`, best first, with their IPs. */
  def topK(vecs: Array[Array[Array[Double]]], q: Array[Array[Double]], w: Array[Double], k: Int,
      skip: Int = -1): (Array[Int], Array[Double]) = {
    val heap = mutable.PriorityQueue.empty[(Double, Int)](bestFirst)
    var v = 0
    while (v < vecs.length) {
      if (v != skip) {
        val ip = JointSimilarity.jointIP(w, q, vecs(v))
        if (heap.size < k) heap.enqueue((ip, v))
        else if (java.lang.Double.compare(ip, heap.head._1) > 0) { heap.dequeue(); heap.enqueue((ip, v)) }
      }
      v += 1
    }
    val best = heap.dequeueAll.reverse
    (best.map(_._2).toArray, best.map(_._1).toArray)
  }
}
