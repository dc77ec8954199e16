package repro.graph

import repro.core.{JointSimilarity, VecOps}
import repro.core.Types._

/** The search kernel of Algorithm 2 as it stood before `searchKernel` kept R
  * in sorted primitive arrays: R as a `TreeSet` of (ip, id) pairs beside
  * boxed `scored`, `inR` and `expanded` sets. Kept as the reference that
  * `JointSearchSpec` compares the array-based kernel with, output by output
  * and bit by bit; it reads the index through its nested `adjacency` view,
  * taken once per query.
  */
object ReferenceKernel {

  /** Greedy routing kernel (Algorithm 2). Pure function; runs inside
    * mapPartitions for the Dataset API and on the driver for unit tests.
    *
    * R is the fixed-size (l) result set ordered by joint IP; H marks
    * expanded vertices. A `scored` set avoids recomputing IPs for vertices
    * already evaluated (the paper's H-check plus memoization — identical
    * result set, fewer dot products).
    *
    * @return (top-k ids, dot products, pruned count, hops, per-iteration
    *         sum of R's IPs — the monotone f(η) of Lemma 3)
    */
  def searchKernel(
      qVecs: Array[Array[Double]],
      qid: Long,
      w: Array[Double],
      index: FusedIndex,
      store: VectorStore,
      cfg: SearchConfig,
      seed: Long = 99L,
  ): (Array[Int], Long, Long, Long, Array[Double]) = {
    val n = index.n
    val adjacency = index.adjacency // materialized per call: read it once, not per hop
    val l = math.min(cfg.l, n)
    var dots = 0L
    var prunedCnt = 0L

    def exactIp(v: Int): Double = {
      val r = JointSimilarity.partialJointIP(w, qVecs, store(v), Double.NegativeInfinity)
      dots += r.modalitiesScanned
      r.ip
    }

    // R ordered worst-last; ties broken by id for determinism.
    implicit val ord: Ordering[(Double, Int)] =
      Ordering.Tuple2(Ordering[Double].reverse, Ordering[Int])
    val r = scala.collection.mutable.TreeSet.empty[(Double, Int)]
    val inR = new java.util.HashMap[Integer, java.lang.Double]()
    val scored = new java.util.HashSet[Integer]()
    val expanded = new java.util.HashSet[Integer]()

    def add(v: Int): Unit = {
      if (!inR.containsKey(v)) {
        val ip = exactIp(v)
        r.add((ip, v)); inR.put(v, ip); scored.add(v)
      }
    }
    // Line 1–3: seed + (l−1) random vertices, scored exactly.
    add(index.seedVertex)
    var c = 0L
    while (inR.size < l) {
      val cand = math.floorMod(VecOps.mix64(seed ^ VecOps.mix64(qid * 131 + c)), n.toLong).toInt
      add(cand)
      c += 1
    }

    var hops = 0L
    val fEta = scala.collection.mutable.ArrayBuffer[Double](r.iterator.map(_._1).sum)
    var done = false
    while (!done) {
      // Line 5: unvisited vertex in R nearest to q.
      val next = r.iterator.find(p => !expanded.contains(p._2))
      next match {
        case None => done = true
        case Some((_, v)) =>
          expanded.add(v); hops += 1
          val nbrs = adjacency(v)
          var i = 0
          while (i < nbrs.length) {
            val u = nbrs(i)
            if (!scored.contains(u) && !inR.containsKey(u)) {
              val worst = r.last // line 8: z = argmin IP in R
              if (cfg.usePartialDistance) {
                val pr = JointSimilarity.partialJointIP(w, qVecs, store(u), worst._1)
                dots += pr.modalitiesScanned
                scored.add(u)
                if (pr.pruned) prunedCnt += 1
                else if (pr.ip > worst._1) {
                  r.remove(worst); inR.remove(worst._2)
                  r.add((pr.ip, u)); inR.put(u, pr.ip)
                }
              } else {
                val ip = exactIp(u)
                scored.add(u)
                if (ip > worst._1) {
                  r.remove(worst); inR.remove(worst._2)
                  r.add((ip, u)); inR.put(u, ip)
                }
              }
            }
            i += 1
          }
          fEta += r.iterator.map(_._1).sum
      }
    }
    (r.iterator.take(cfg.k).map(_._2).toArray, dots, prunedCnt, hops, fEta.toArray)
  }
}
