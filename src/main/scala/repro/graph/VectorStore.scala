package repro.graph

import java.util.stream.IntStream
import scala.collection.mutable
import scala.reflect.ClassTag
import org.apache.spark.sql.Dataset
import repro.core.JointSimilarity
import repro.core.Types.MMObject

/** Compact in-memory snapshot of the object set's modality vectors.
  *
  * Object ids are the contiguous range [0, n) produced by
  * [[repro.mmdata.MultiModalSynth.objects]], so vectors live in a flat
  * array indexed by id — the structure the index build, the exact scans
  * and search all read in place on the driver, through
  * [[VectorStore.parallelMap]]. At the reproduction scales (n ≤ ~50k,
  * m ≤ 4, dim 24) this is ~20 MB; the paper's single-node C++ kernels hold
  * exactly the same array in RAM.
  */
final class VectorStore(val vecs: Array[Array[Array[Double]]]) extends Serializable {
  def n: Int = vecs.length
  def m: Int = if (vecs.isEmpty) 0 else vecs(0).length
  def apply(id: Long): Array[Array[Double]] = vecs(id.toInt)
  def targetVec(id: Long): Array[Double] = vecs(id.toInt)(0)

  /** Exact scan: the (at most) `k` ids other than `skip` of highest joint IP
    * with `q` under `w`, best first — by IP descending
    * (`java.lang.Double.compare`), then by id ascending — with their IPs.
    * A bounded heap of k entries, O(n log k). */
  def topK(q: Array[Array[Double]], w: Array[Double], k: Int, skip: Int = -1): (Array[Int], Array[Double]) = {
    require(k > 0, s"k = $k, must be positive")
    val heap = mutable.PriorityQueue.empty[(Double, Int)](VectorStore.bestFirst) // head: the worst kept
    var v = 0
    while (v < n) {
      if (v != skip) {
        val ip = JointSimilarity.jointIP(w, q, vecs(v))
        if (heap.size < k) heap.enqueue((ip, v))
        // Ids arrive ascending, so an equal IP ranks below every kept entry.
        else if (java.lang.Double.compare(ip, heap.head._1) > 0) { heap.dequeue(); heap.enqueue((ip, v)) }
      }
      v += 1
    }
    val best = heap.dequeueAll.reverse
    (best.map(_._2).toArray, best.map(_._1).toArray)
  }
}

object VectorStore {

  /** (ip, id) pairs ranked best first: IP descending, then id ascending. */
  private val bestFirst: Ordering[(Double, Int)] = new Ordering[(Double, Int)] {
    def compare(a: (Double, Int), b: (Double, Int)): Int = {
      val c = java.lang.Double.compare(b._1, a._1)
      if (c != 0) c else Integer.compare(a._2, b._2)
    }
  }

  /** Collects an object Dataset into an id-indexed store. Ids must be the
    * contiguous range [0, n), and every vector component finite. */
  def collect(objects: Dataset[MMObject]): VectorStore = {
    val rows = objects.collect()
    val n = rows.length
    val arr = new Array[Array[Array[Double]]](n)
    rows.foreach { o =>
      require(o.id >= 0 && o.id < n, s"non-contiguous object id ${o.id} (n=$n)")
      val vecs = o.vecs.map(_.toArray).toArray
      require(vecs.forall(_.forall(java.lang.Double.isFinite)), s"object ${o.id} has a NaN or infinite component")
      arr(o.id.toInt) = vecs
    }
    require(!arr.contains(null), "duplicate/missing object ids")
    new VectorStore(arr)
  }

  /** `f(i)` for every i in [0, n), element i of the result, computed on the
    * driver's cores: a parallel stream over the common fork-join pool (nproc
    * threads with the caller), with no Spark job. `f` reads what it needs in
    * place, so each call must be independent of the others. */
  def parallelMap[A: ClassTag](n: Int)(f: Int => A): Array[A] = {
    val out = new Array[A](n)
    IntStream.range(0, n).parallel().forEach(i => out(i) = f(i))
    out
  }
}
