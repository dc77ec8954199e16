package repro.graph

import org.apache.spark.sql.SparkSession
import repro.core.JointSimilarity

/** Graph quality metric (paper App. H, Table XI): the mean ratio of a
  * vertex's γ neighbors that appear among its exact top-γ nearest
  * neighbors by joint similarity. Exact neighbor lists are computed as a
  * distributed all-pairs scan (one Spark job over vertex ids, each vertex
  * scanned against the broadcast store).
  */
object GraphQuality {

  /** Exact top-γ joint-IP neighbor lists for every vertex. */
  def exactNeighbors(
      spark: SparkSession,
      store: VectorStore,
      w: Array[Double],
      gamma: Int,
  ): Array[Array[Int]] = {
    val bStore = spark.sparkContext.broadcast(store)
    val bw = spark.sparkContext.broadcast(w)
    try FusedIndexBuilder.eachVertex(spark, store.n) { o =>
      val st = bStore.value; val ww = bw.value
      // min-heap on ip: head = current worst of the kept γ
      val minFirst: Ordering[(Double, Int)] =
        Ordering.Tuple2(Ordering[Double], Ordering[Int]).reverse
      val pq = scala.collection.mutable.PriorityQueue.empty[(Double, Int)](minFirst)
      var v = 0
      while (v < st.n) {
        if (v != o) {
          val ip = JointSimilarity.jointIP(ww, st.vecs(o), st.vecs(v))
          if (pq.size < gamma) pq.enqueue((ip, v))
          else if (ip > pq.head._1) { pq.dequeue(); pq.enqueue((ip, v)) }
        }
        v += 1
      }
      pq.dequeueAll.iterator.map((p: (Double, Int)) => p._2).toArray
    } finally { bStore.destroy(); bw.destroy() }
  }

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
