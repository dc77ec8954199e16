package repro.graph

/** The fused proximity-graph index (paper §VII-A, Algorithm 1), its graph in
  * compressed sparse row form: vertex v's out-neighbours (vertex id = object
  * id) are `targets(offsets(v) until offsets(v + 1))`, in the order the build
  * chose them, so every list lives in one `Array[Int]` read by offset, as
  * hnswlib packs its level-0 link lists and NSG its final graph. The two
  * arrays, the seed and the weights are all it serializes.
  *
  * Nothing here checks the graph: the builder makes a well-formed one, and
  * callers that hand in nested lists (such as the `mstmbench` gate's self-test,
  * which builds self-loops, out-of-range edges and missing vertices on
  * purpose) get back exactly what they gave.
  *
  * @param offsets    n + 1 ascending positions in `targets`, `offsets(n)` its length
  * @param targets    every vertex's out-neighbours, vertex 0's first
  * @param seedVertex fixed entry point (component ④: nearest to centroid)
  * @param weights    modality weights w = ω² the graph was built under
  */
final class FusedIndex private[repro] (
    private[repro] val offsets: Array[Int],
    private[repro] val targets: Array[Int],
    val seedVertex: Int,
    val weights: Array[Double],
) extends Serializable {

  def n: Int = offsets.length - 1

  def maxDegree: Int = {
    var max = 0; var v = 0
    while (v < n) { max = math.max(max, offsets(v + 1) - offsets(v)); v += 1 }
    max
  }

  /** Every vertex's out-neighbours as nested arrays, materialized on each
    * call: a view for callers compiled against the nested index. The
    * program reads the graph by offset instead. */
  def adjacency: Array[Array[Int]] =
    Array.tabulate(n)(v => java.util.Arrays.copyOfRange(targets, offsets(v), offsets(v + 1)))

  /** This index with the given parts replaced, the graph packed anew. */
  def copy(
      adjacency: Array[Array[Int]] = this.adjacency,
      seedVertex: Int = this.seedVertex,
      weights: Array[Double] = this.weights,
  ): FusedIndex = FusedIndex(adjacency, seedVertex, weights)
}

object FusedIndex {

  /** The index whose vertex v has out-neighbours `adjacency(v)`, packed into
    * one array on the calling thread. */
  def apply(adjacency: Array[Array[Int]], seedVertex: Int, weights: Array[Double]): FusedIndex = {
    val edges = adjacency.iterator.map(_.length.toLong).sum
    require(edges <= Int.MaxValue - 8, s"$edges edges do not fit one array")
    val offsets = new Array[Int](adjacency.length + 1)
    var v = 0
    while (v < adjacency.length) { offsets(v + 1) = offsets(v) + adjacency(v).length; v += 1 }
    val targets = new Array[Int](edges.toInt)
    v = 0
    while (v < adjacency.length) {
      System.arraycopy(adjacency(v), 0, targets, offsets(v), adjacency(v).length)
      v += 1
    }
    new FusedIndex(offsets, targets, seedVertex, weights)
  }
}
