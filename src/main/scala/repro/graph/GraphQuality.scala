package repro.graph

/** Graph quality metric (paper App. H, Table XI): the mean ratio of a
  * vertex's γ neighbors that appear among its exact top-γ nearest
  * neighbors by joint similarity. Exact neighbor lists come from an
  * all-pairs scan on the driver's cores: each vertex scanned against the
  * whole store by [[VectorStore.topK]].
  */
object GraphQuality {

  /** Exact top-γ joint-IP neighbor lists for every vertex, best first (by
    * joint IP descending, then by id). */
  def exactNeighbors(store: VectorStore, w: Array[Double], gamma: Int): Array[Array[Int]] =
    VectorStore.parallelMap(store.n)(o => store.topK(store(o), w, gamma, skip = o)._1)

  /** Mean overlap of `adjacency`'s first γ entries with the exact top-γ. */
  def quality(adjacency: Array[Array[Int]], exact: Array[Array[Int]], gamma: Int): Double = {
    require(adjacency.length == exact.length)
    val n = adjacency.length
    var s = 0.0
    var o = 0
    while (o < n) {
      val truth = exact(o).toSet
      s += adjacency(o).take(gamma).count(truth.contains).toDouble / gamma
      o += 1
    }
    s / n
  }
}
