package repro.graph

import java.util.stream.IntStream
import scala.reflect.ClassTag
import org.apache.spark.sql.Dataset
import repro.core.{JointSimilarity, VecOps}
import repro.core.Types.MMObject

/** Compact in-memory snapshot of the object set's modality vectors.
  *
  * Object ids are the contiguous range [0, n) produced by
  * [[repro.mmdata.MultiModalSynth.objects]], and every object has the same
  * dimension for each modality, so all vectors live in one `Array[Double]`
  * laid out [object][modality][component]: object v's modality i starts at
  * `v * stride + offsets(i)`, with `offsets(m)` the stride. The index build,
  * the exact scans and search all score by offset into that one block on the
  * driver, through [[VectorStore.parallelMap]], as the paper's single-node
  * kernels (and hnswlib's element blocks) read each object's m vectors from
  * one stretch of RAM. The array, the offsets and n are all it serializes.
  *
  * Every joint IP here sums each modality's dot product in component order
  * and adds `wᵢ · dot` in modality order, skipping a modality that is empty
  * or weighted 0: the bits of [[repro.core.JointSimilarity.jointIP]] over
  * the nested vectors.
  */
final class VectorStore private (
    private[repro] val data: Array[Double],
    private[repro] val offsets: Array[Int],
    val n: Int,
) extends Serializable {

  /** A store holding a copy of `vecs`, object v's modality i at `vecs(v)(i)`.
    * Rejects, naming the object and the modality, an object whose shape
    * differs from object 0's. Nothing in the program builds a store this way;
    * it is for callers that hold nested arrays. */
  def this(vecs: Array[Array[Array[Double]]]) = this(VectorStore.flatten(vecs), VectorStore.offsetsOf(VectorStore.shape(vecs)), vecs.length)

  def m: Int = offsets.length - 1
  /** The dimension of modality `i`. */
  def dim(i: Int): Int = offsets(i + 1) - offsets(i)
  /** Components per object: the distance between two objects' blocks. */
  private[repro] def stride: Int = offsets(m)

  /** Object `id`'s m vectors, copied out of the store. */
  def apply(id: Long): Array[Array[Double]] = {
    val base = id.toInt * stride
    Array.tabulate(m)(i => java.util.Arrays.copyOfRange(data, base + offsets(i), base + offsets(i + 1)))
  }
  def targetVec(id: Long): Array[Double] = {
    val base = id.toInt * stride
    java.util.Arrays.copyOfRange(data, base + offsets(0), base + offsets(1))
  }

  /** Every object's vectors as nested arrays, materialized on each call: a
    * view for callers compiled against the nested store. The program reads
    * the store by offset instead. */
  def vecs: Array[Array[Array[Double]]] = Array.tabulate(n)(v => apply(v))

  /** Joint IP of objects `a` and `b` under `w`. */
  def pairIP(w: Array[Double], a: Int, b: Int): Double = {
    val baseA = a * stride; val baseB = b * stride
    var s = 0.0; var i = 0
    while (i < m) {
      val off = offsets(i); val len = offsets(i + 1) - off
      if (len > 0 && w(i) != 0.0) s += w(i) * VecOps.dot(data, baseA + off, baseB + off, len)
      i += 1
    }
    s
  }

  /** Exact scan: the (at most) `k` ids other than `skip` of highest joint IP
    * with `q` under `w`, best first — by IP descending
    * (`java.lang.Double.compare`), then by id ascending — with their IPs.
    * Each IP is a [[repro.core.JointSimilarity.PartialScan]] at threshold
    * −∞, which never prunes; a bounded heap of k primitive entries
    * ([[BestK]]) keeps the best, O(n log k). */
  def topK(q: Array[Array[Double]], w: Array[Double], k: Int, skip: Int = -1): (Array[Int], Array[Double]) = {
    require(k > 0, s"k = $k, must be positive")
    val scan = new JointSimilarity.PartialScan(w, q, data, offsets)
    val best = new BestK(math.min(k, n))
    var v = 0
    while (v < n) {
      if (v != skip) best.offer(v, scan(v, Double.NegativeInfinity))
      v += 1
    }
    best.result()
  }
}

object VectorStore {

  /** Collects an object Dataset into an id-indexed store, writing each row
    * straight into the flat array. Ids must be the contiguous range [0, n),
    * every object must have object 0's number of modalities and dimension
    * for each, and every vector component must be finite. */
  def collect(objects: Dataset[MMObject]): VectorStore = {
    val rows = objects.collect()
    val n = rows.length
    rows.foreach(o => require(o.id >= 0 && o.id < n, s"non-contiguous object id ${o.id} (n=$n)"))
    val shape = if (n == 0) Array.emptyIntArray else rows.find(_.id == 0L)
      .getOrElse(throw new IllegalArgumentException("duplicate/missing object ids")).vecs.map(_.length).toArray
    val offsets = offsetsOf(shape)
    val data = new Array[Double](size(n, offsets))
    val filled = new Array[Boolean](n)
    rows.foreach { o =>
      checkShape(o.id, o.vecs.map(_.length), shape)
      var at = o.id.toInt * offsets(shape.length)
      o.vecs.foreach(_.foreach { x =>
        require(java.lang.Double.isFinite(x), s"object ${o.id} has a NaN or infinite component")
        data(at) = x; at += 1
      })
      filled(o.id.toInt) = true
    }
    require(filled.forall(identity), "duplicate/missing object ids")
    new VectorStore(data, offsets, n)
  }

  /** Rejects object `id` unless its modality dimensions are `shape`'s, object 0's. */
  private def checkShape(id: Long, dims: Seq[Int], shape: Array[Int]): Unit = {
    require(dims.length == shape.length, s"object $id has ${dims.length} modalities, object 0 has ${shape.length}")
    var i = 0
    while (i < shape.length) {
      require(dims(i) == shape(i), s"object $id: modality $i has dimension ${dims(i)}, object 0's has ${shape(i)}")
      i += 1
    }
  }

  /** Modality offsets within an object's block from the dimensions, the stride last. */
  private def offsetsOf(shape: Array[Int]): Array[Int] = shape.scanLeft(0)(_ + _)

  private def size(n: Int, offsets: Array[Int]): Int = {
    val total = n.toLong * offsets.last
    require(total <= Int.MaxValue - 8, s"$n objects of ${offsets.last} components do not fit one array")
    total.toInt
  }

  /** Object 0's modality dimensions. */
  private def shape(vecs: Array[Array[Array[Double]]]): Array[Int] =
    if (vecs.isEmpty) Array.emptyIntArray else vecs(0).map(_.length)

  private def flatten(vecs: Array[Array[Array[Double]]]): Array[Double] = {
    val dims = shape(vecs)
    val data = new Array[Double](size(vecs.length, offsetsOf(dims)))
    var at = 0
    vecs.indices.foreach { v =>
      checkShape(v, vecs(v).map(_.length).toSeq, dims)
      vecs(v).foreach { x => System.arraycopy(x, 0, data, at, x.length); at += x.length }
    }
    data
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
