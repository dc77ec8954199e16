package repro.graph

import org.apache.spark.sql.SparkSession
import repro.core.{JointSimilarity, VecOps}
import repro.core.Types.IndexConfig

/** Component-based index construction pipeline (Algorithm 1, components
  * ①–⑤) over the in-memory [[VectorStore]], run on the driver's cores as
  * the paper's single-node build is: each per-vertex pass is a
  * [[VectorStore.parallelMap]] over vertex ids, with no Spark job. Every
  * joint IP between two vertices — the NNDescent and ② candidates, MRNG's
  * occlusion test, ⑤'s bridges — is [[VectorStore.pairIP]], read by offset
  * from the store's flat array; ④ scores the centroid through one
  * [[repro.core.JointSimilarity.PartialScan]].
  *
  *  - ① Initialization: random γ-NN lists refined by ε rounds of
  *    NNDescent. Each round is one pass that reads the previous round's
  *    adjacency and writes a new one (no in-place update, so the graph does
  *    not depend on thread timing): every vertex v keeps the best γ of
  *    N(v) ∪ N(N(v)) \ {v} by joint IP, chosen by a bounded heap of γ
  *    ([[BestK]]), not by sorting all of up to γ(γ + 1) candidates.
  *    (The paper's one-at-a-time replacement loop and this batch top-γ
  *    update reach the same fixpoint; batching needs no shared state.)
  *  - ② Candidate acquisition: one more neighbors-of-neighbors expansion,
  *    keeping each vertex's best candidates, ranked by the same heap.
  *  - ③ Neighbor selection: MRNG pruning (Lemma 2) per vertex, in the same
  *    pass as ②; toggling `useMrngSelection` off yields the KGraph-style
  *    top-γ graph used in the §VIII-G pipeline ablation.
  *  - ④ Seed preprocessing: seed = argmax joint IP to the centroid of the
  *    concatenated vectors.
  *  - ⑤ Connectivity: BFS from the seed over the adjacency;
  *    unreached vertices get a bridge edge from their nearest visited
  *    vertex.
  *
  * The passes work on one array of out-lists per vertex; the last step packs
  * them, on the calling thread, into the [[FusedIndex]]'s single array.
  */
object FusedIndexBuilder {

  /** Max candidates kept per vertex in component ② (paper keeps N(o) ∪
    * N(N(o)) in full; capping at γ·(γ+1) only drops duplicates' tail). */
  private def candCap(gamma: Int): Int = gamma * (gamma + 1)

  /** Component ① alone: the NNDescent kNN graph after ε refinement rounds
    * (random init at ε = 0). This is the graph whose quality App. H /
    * Table XI measures against the exact top-γ lists. */
  def nnDescentGraph(
      store: VectorStore,
      weights: Array[Double],
      gamma: Int,
      epsilon: Int,
      seed: Long = 1234L,
  ): Array[Array[Int]] = {
    var nbrs = initRandom(store.n, math.min(gamma, store.n - 1), seed)
    for (_ <- 0 until epsilon) {
      val prev = nbrs
      nbrs = VectorStore.parallelMap(store.n)(v => candidates(store, weights, prev, v, gamma)._1)
    }
    nbrs
  }

  /** γ distinct random out-neighbours per vertex, none itself, in draw order. */
  private def initRandom(n: Int, gamma: Int, seed: Long): Array[Array[Int]] = {
    val picked = new VisitedTags
    Array.tabulate(n) { id =>
      picked.reset(n)
      picked.mark(id)
      val out = new Array[Int](gamma)
      var size = 0
      var c = 0L
      while (size < gamma) {
        val cand = math.floorMod(VecOps.mix64(seed ^ VecOps.mix64(id.toLong * 31 + c)), n.toLong).toInt
        if (picked.visit(cand)) { out(size) = cand; size += 1 }
        c += 1
      }
      out
    }
  }

  /** The fused index of `store` under `weights`. `spark` is not used: the
    * build runs on the driver's cores. The parameter stays so that callers
    * compiled against this signature, such as the `mstmbench` driver, keep
    * compiling. */
  def build(
      spark: SparkSession,
      store: VectorStore,
      weights: Array[Double],
      cfg: IndexConfig = IndexConfig(),
      seed: Long = 1234L,
  ): FusedIndex = {
    val n = store.n
    require(n > 1, "index needs at least two objects")
    require(weights.length == store.m, s"${weights.length} weights for ${store.m} modalities")
    require(weights.forall(x => !x.isNaN && !x.isInfinite),
      s"weights must be finite: ${weights.mkString("[", ", ", "]")}")
    require(weights.exists(_ != 0.0), "every weight is 0")
    val gamma = math.min(cfg.gamma, n - 1)

    // ① random initialization + ε NNDescent rounds
    val knn = nnDescentGraph(store, weights, gamma, cfg.epsilon, seed)

    // ② candidate acquisition + ③ neighbor selection, one pass per vertex
    val adjacency = VectorStore.parallelMap(n) { v =>
      val (us, ips) = candidates(store, weights, knn, v, candCap(gamma))
      if (cfg.useMrngSelection) mrngSelect(v, us, ips, gamma, store, weights) else us.take(gamma)
    }

    // ④ seed = vertex nearest to the centroid of concatenated vectors.
    // (Per-modality mean ⇔ concatenated-vector mean, by linearity.)
    val m = store.m
    val stride = store.stride
    val centroid = Array.tabulate(m) { i =>
      val acc = new Array[Double](store.dim(i))
      var at = store.offsets(i)
      var v = 0
      while (v < n) { var j = 0; while (j < acc.length) { acc(j) += store.data(at + j); j += 1 }; at += stride; v += 1 }
      acc.map(_ / n)
    }
    val toCentroid = new JointSimilarity.PartialScan(weights, centroid, store.data, store.offsets)
    var seedVertex = 0
    var bestIp = Double.NegativeInfinity
    var v = 0
    while (v < n) {
      val ip = toCentroid(v, Double.NegativeInfinity)
      if (ip > bestIp) { bestIp = ip; seedVertex = v }
      v += 1
    }

    // ⑤ connectivity repair by BFS from the seed.
    if (cfg.ensureConnectivity)
      repairConnectivity(adjacency, seedVertex, (a, b) => store.pairIP(weights, a, b))

    FusedIndex(adjacency, seedVertex, weights.clone())
  }

  /** The scratch marks of [[candidates]], one set per thread. */
  private val candidateTags = ThreadLocal.withInitial[VisitedTags](() => new VisitedTags)

  /** Neighbors-of-neighbors expansion of one vertex: N(v) ∪ N(N(v)) \ {v},
    * scored by joint IP with v and ordered by (−ip, u) — `Double.compare`
    * on −ip, then id — first `keep`, kept by a bounded heap ([[BestK]]).
    * Shared by the NNDescent rounds (keep = γ) and component ② (keep =
    * candidate cap). Current neighbors always remain candidates. */
  private[graph] def candidates(
      store: VectorStore,
      w: Array[Double],
      nbrs: Array[Array[Int]],
      v: Int,
      keep: Int,
  ): (Array[Int], Array[Double]) = {
    val tags = candidateTags.get()
    tags.reset(nbrs.length)
    tags.mark(v)
    val nv = nbrs(v)
    var bound = 0
    var a = 0
    while (a < nv.length) { bound += 1 + nbrs(nv(a)).length; a += 1 }
    val us = new Array[Int](bound)
    var size = 0
    a = 0
    while (a < nv.length) {
      val u = nv(a)
      if (tags.visit(u)) { us(size) = u; size += 1 }
      val nu = nbrs(u)
      var b = 0
      while (b < nu.length) { if (tags.visit(nu(b))) { us(size) = nu(b); size += 1 }; b += 1 }
      a += 1
    }
    val best = new BestK(math.min(keep, size))
    var i = 0
    while (i < size) { best.offer(us(i), store.pairIP(w, v, us(i))); i += 1 }
    best.result()
  }

  /** MRNG selection (Algorithm 1 lines 11–17): walk candidates in
    * descending joint IP; accept v unless an already-accepted neighbor u is
    * strictly closer to it than o is (Lemma 2 diversification). A tie does
    * not occlude, as in NSG: otherwise an exact duplicate d of o, accepted
    * first, ties with o on every later candidate, and o keeps only d. */
  def mrngSelect(
      o: Int,
      us: Array[Int],
      ips: Array[Double],
      gamma: Int,
      store: VectorStore,
      w: Array[Double],
  ): Array[Int] = {
    val out = new Array[Int](math.max(0, math.min(gamma, us.length)))
    var size = 0
    var i = 0
    while (i < us.length && size < gamma) {
      val v = us(i)
      if (v != o) {
        var ok = true
        var j = 0
        while (ok && j < size) {
          if (store.pairIP(w, out(j), v) > ips(i)) ok = false
          j += 1
        }
        if (ok) { out(size) = v; size += 1 }
      }
      i += 1
    }
    java.util.Arrays.copyOf(out, size)
  }

  /** Component ⑤: BFS from the seed; for every unreached vertex add a
    * bridge edge from its nearest visited vertex and continue the BFS
    * through it. When L > 1024 vertices are visited, "nearest" is taken
    * over every ⌊L/1024⌋-th visited id in id order (1024–2047 vertices),
    * each read from a Fenwick tree of the visited ids in O(log n), so no
    * bridge rescans all n vertices. */
  private[graph] def repairConnectivity(
      adjacency: Array[Array[Int]],
      seedVertex: Int,
      jointIp: (Int, Int) => Double,
  ): Unit = {
    val n = adjacency.length
    val visited = new Array[Boolean](n)
    val fenwick = new Array[Int](n + 1) // fenwick(i) counts visited ids in (i − lowbit(i), i]
    var nVisited = 0
    val queue = new java.util.ArrayDeque[Int]()
    def visit(u: Int): Unit = if (!visited(u)) {
      visited(u) = true; queue.add(u); nVisited += 1
      var i = u + 1
      while (i <= n) { fenwick(i) += 1; i += i & -i }
    }
    // The visited id of 0-based rank k in ascending id order.
    def kthVisited(k: Int): Int = {
      var pos = 0
      var rest = k + 1
      var bit = Integer.highestOneBit(n)
      while (bit > 0) {
        val next = pos + bit
        if (next <= n && fenwick(next) < rest) { pos = next; rest -= fenwick(next) }
        bit >>= 1
      }
      pos
    }
    def bfsFrom(s: Int): Unit = {
      visit(s)
      while (!queue.isEmpty) adjacency(queue.poll()).foreach(visit)
    }
    bfsFrom(seedVertex)
    var u = 0
    while (u < n) {
      if (!visited(u)) {
        val sample = (0 until nVisited by math.max(1, nVisited / 1024)).map(kthVisited)
        val bridge = sample.maxBy(v => jointIp(v, u))
        adjacency(bridge) = adjacency(bridge) :+ u
        bfsFrom(u)
      }
      u += 1
    }
  }
}
