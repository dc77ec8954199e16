package repro.graph

import org.apache.spark.sql.Dataset
import repro.core.Types.MMObject

/** Compact, broadcastable snapshot of the object set's modality vectors.
  *
  * Object ids are the contiguous range [0, n) produced by
  * [[repro.mmdata.MultiModalSynth.objects]], so vectors live in a flat
  * array indexed by id — the structure the index build's Spark jobs
  * (scoring, MRNG pruning) read from a broadcast, and that search reads
  * in place on the driver. At the reproduction scales (n ≤ ~50k, m ≤ 4,
  * dim 24) this is ~20 MB, comfortably below broadcast limits; the paper's
  * single-node C++ kernels hold exactly the same array in RAM.
  */
final class VectorStore(val vecs: Array[Array[Array[Double]]]) extends Serializable {
  def n: Int = vecs.length
  def m: Int = if (vecs.isEmpty) 0 else vecs(0).length
  def apply(id: Long): Array[Array[Double]] = vecs(id.toInt)
  def targetVec(id: Long): Array[Double] = vecs(id.toInt)(0)
}

object VectorStore {

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
}
