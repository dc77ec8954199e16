package repro.graph

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.{PropSupport, SparkSpec}
import repro.core.{JointSimilarity, VecOps}
import repro.core.Types._
import repro.mmdata.MultiModalSynth

class FusedIndexBuilderSpec extends AnyFunSuite with SparkSpec with PropSupport {

  private val ds = DatasetConfig("idx", n = 300, nQueries = 20, m = 2, dim = 16,
    dLat = 8, nClusters = 15, tau = 0.35, seed = 31L)
  private val w = Array(0.5, 0.5)

  private lazy val objects = MultiModalSynth.objects(spark, ds).cache()
  private lazy val store = VectorStore.collect(objects)
  private lazy val index = FusedIndexBuilder.build(spark, store, w, IndexConfig(gamma = 8, epsilon = 2))

  test("index covers every object exactly once") {
    assert(index.n == ds.n)
  }

  test("no self-loops") {
    index.adjacency.zipWithIndex.foreach { case (ns, v) => assert(!ns.contains(v)) }
  }

  test("neighbors are valid vertex ids without duplicates") {
    index.adjacency.foreach { ns =>
      assert(ns.forall(u => u >= 0 && u < ds.n))
      assert(ns.toSet.size == ns.length)
    }
  }

  test("degrees respect gamma up to connectivity bridges") {
    // Bridges (component ⑤) may push a few vertices one past γ.
    val over = index.adjacency.count(_.length > 8)
    assert(index.maxDegree <= 8 + 3, s"max degree ${index.maxDegree}")
    assert(over <= ds.n / 10, s"$over vertices over gamma")
  }

  /** Vertices not reachable from `seed`. */
  private def unreachable(adjacency: Array[Array[Int]], seed: Int): Int = {
    val visited = new Array[Boolean](adjacency.length)
    val q = new java.util.ArrayDeque[Int]()
    visited(seed) = true; q.add(seed)
    while (!q.isEmpty) {
      val v = q.poll()
      adjacency(v).foreach(u => if (!visited(u)) { visited(u) = true; q.add(u) })
    }
    visited.count(!_)
  }

  test("every vertex is reachable from the seed (component ⑤)") {
    val missed = unreachable(index.adjacency, index.seedVertex)
    assert(missed == 0, s"$missed unreachable vertices")
  }

  test("seed is the vertex closest to the centroid (component ④)") {
    val n = store.n
    val centroid = Array.tabulate(store.m) { i =>
      val acc = new Array[Double](ds.dim)
      (0 until n).foreach { v => val vec = store.vecs(v)(i); (0 until ds.dim).foreach(j => acc(j) += vec(j)) }
      acc.map(_ / n)
    }
    val best = (0 until n).maxBy(v => JointSimilarity.jointIP(w, centroid, store.vecs(v)))
    assert(index.seedVertex == best)
  }

  test("MRNG selection (Lemma 2): accepted neighbors are closer to o than to each other") {
    // For the *pre-bridge* graph, each accepted v must satisfy
    // IP(o,v) > IP(u,v) for every u accepted before it.
    val noBridge = FusedIndexBuilder.build(spark, store, w,
      IndexConfig(gamma = 8, epsilon = 2, ensureConnectivity = false))
    noBridge.adjacency.zipWithIndex.foreach { case (ns, o) =>
      ns.indices.foreach { i =>
        val v = ns(i)
        val ipOv = JointSimilarity.jointIP(w, store.vecs(o), store.vecs(v))
        (0 until i).foreach { j =>
          val u = ns(j)
          val ipUv = JointSimilarity.jointIP(w, store.vecs(u), store.vecs(v))
          assert(ipOv > ipUv,
            s"MRNG violated at o=$o v=$v u=$u: IP(o,v)=$ipOv <= IP(u,v)=$ipUv")
        }
      }
    }
  }

  test("graph quality improves with NNDescent iterations (Table XI shape)") {
    val exact = GraphQuality.exactNeighbors(store, w, gamma = 8)
    def qualityAt(eps: Int): Double = {
      val idx = FusedIndexBuilder.build(spark, store, w,
        IndexConfig(gamma = 8, epsilon = eps, useMrngSelection = false, ensureConnectivity = false))
      GraphQuality.quality(idx.adjacency, exact, gamma = 8)
    }
    val q0 = qualityAt(0); val q2 = qualityAt(2)
    assert(q2 > q0 + 0.2, s"q0=$q0 q2=$q2")
    assert(q2 > 0.7, s"q2=$q2")
  }

  test("KGraph variant (no MRNG) keeps exactly gamma nearest candidates") {
    val kg = FusedIndexBuilder.build(spark, store, w,
      IndexConfig(gamma = 8, epsilon = 2, useMrngSelection = false, ensureConnectivity = false))
    assert(kg.adjacency.forall(_.length == 8))
  }

  test("MRNG prunes at least as aggressively as top-gamma") {
    val mrng = FusedIndexBuilder.build(spark, store, w,
      IndexConfig(gamma = 8, epsilon = 2, ensureConnectivity = false))
    val avgDeg = mrng.adjacency.map(_.length).sum.toDouble / mrng.n
    assert(avgDeg <= 8.0)
  }

  test("build reproduces the pinned graph") {
    // Pinned adjacency hash and seed of the spec's build: a refactor of the
    // build must not change the graph.
    assert(java.util.Arrays.deepHashCode(index.adjacency.asInstanceOf[Array[Object]]) == 3175285)
    assert(index.seedVertex == 18)
  }

  test("candidate step: N(v) ∪ N(N(v)) \\ {v}, ordered by (-ip, u), top keep") {
    // Small integer coordinates and weights make ties common, so the id
    // tie-break is exercised.
    val smallCase = for {
      n <- Gen.choose(2, 24)
      m <- Gen.choose(1, 3)
      dim <- Gen.choose(1, 4)
      vecs <- Gen.listOfN(n, Gen.listOfN(m, Gen.listOfN(dim, Gen.choose(-2, 2).map(_.toDouble))))
      w <- Gen.listOfN(m, Gen.oneOf(0.0, 0.5, 1.0))
      lists <- Gen.listOfN(n, Gen.listOf(Gen.choose(0, n - 1)).map(_.distinct.take(5)))
      keep <- Gen.choose(1, 12)
    } yield {
      val st = new VectorStore(vecs.map(_.map(_.toArray).toArray).toArray)
      val nbrs = lists.zipWithIndex.map { case (l, v) => l.filter(_ != v).toArray }.toArray
      (st, w.toArray, nbrs, keep)
    }
    forAllGen(smallCase) { case (st, w, nbrs, keep) =>
      (0 until st.n).foreach { v =>
        val (us, ips) = FusedIndexBuilder.candidates(st, w, nbrs, v, keep)
        val expected = (nbrs(v).toSet ++ nbrs(v).flatMap(u => nbrs(u)) - v).toSeq
          .map(u => (JointSimilarity.jointIP(w, st.vecs(v), st.vecs(u)), u))
          .sortBy { case (ip, u) => (-ip, u) }
          .take(keep)
        assert(us.toSeq == expected.map(_._2), s"vertex $v")
        assert(ips.toSeq == expected.map(_._1), s"vertex $v")
        val (rUs, rIps) = ReferenceBuild.candidates(st, w, nbrs, v, keep)
        assert(us.toSeq == rUs.toSeq, s"vertex $v")
        assert(ips.map(java.lang.Double.doubleToRawLongBits).toSeq ==
          rIps.map(java.lang.Double.doubleToRawLongBits).toSeq, s"vertex $v")
      }
    }
  }

  test("without MRNG and bridges, build is one more NNDescent round") {
    val kg = FusedIndexBuilder.build(spark, store, w,
      IndexConfig(gamma = 8, epsilon = 2, useMrngSelection = false, ensureConnectivity = false))
    val nn = FusedIndexBuilder.nnDescentGraph(store, w, gamma = 8, epsilon = 3)
    assert(kg.adjacency.map(_.toSeq).toSeq == nn.map(_.toSeq).toSeq)
  }

  test("build, nnDescentGraph and exactNeighbors run on the driver: no Spark job, no broadcast") {
    store // collected before counting
    def work(what: String, f: => Any): (String, Int, Long) = {
      val (_, jobs, broadcasts) = sparkWork(f)
      (what, jobs, broadcasts)
    }
    val counts = Seq(
      work("build", FusedIndexBuilder.build(spark, store, w, IndexConfig(gamma = 8, epsilon = 2))),
      work("nnDescentGraph", FusedIndexBuilder.nnDescentGraph(store, w, gamma = 8, epsilon = 2)),
      work("exactNeighbors", GraphQuality.exactNeighbors(store, w, gamma = 8)))
    assert(counts.forall { case (_, jobs, broadcasts) => jobs == 0 && broadcasts == 0 },
      counts.map { case (what, jobs, broadcasts) => s"$what: $jobs jobs, $broadcasts broadcasts" }.mkString("; "))
  }

  test("connectivity repair bridges 20 000 isolated vertices") {
    val n = 20000
    val adjacency = Array.fill(n)(Array.empty[Int])
    FusedIndexBuilder.repairConnectivity(adjacency, seedVertex = 0, (a, b) => -math.abs(a - b).toDouble)
    assert(adjacency.map(_.length.toLong).sum == n - 1)
    assert(unreachable(adjacency, 0) == 0)
  }

  test("build on stores with duplicated rows: valid, connected, and no twin keeps only its twin") {
    // Continuous unit vectors, so the only exact ties are the twins; every
    // row with dup = true is followed by its twin.
    val unitVec = (dim: Int) => Gen.listOfN(dim, Gen.choose(-1.0, 1.0)).map(v => VecOps.normalize(v.toArray))
    val dupCase = for {
      n0 <- Gen.choose(1, 15)
      m <- Gen.choose(1, 3)
      dim <- Gen.choose(2, 4)
      rows <- Gen.listOfN(n0, Gen.listOfN(m, unitVec(dim)))
      dup <- Gen.listOfN(n0 - 1, Gen.oneOf(true, false)).map(true :: _)
      w <- Gen.listOfN(m, Gen.oneOf(0.25, 0.5, 1.0))
      gamma <- Gen.choose(1, 8)
      epsilon <- Gen.choose(1, 3)
    } yield {
      val vecs = rows.zip(dup).flatMap { case (r, d) => if (d) Seq(r, r) else Seq(r) }
      val twins = vecs.indices.sliding(2).collect { case Seq(a, b) if vecs(a) eq vecs(b) => (a, b) }.toSeq
      (new VectorStore(vecs.map(_.toArray).toArray), twins, w.toArray, IndexConfig(gamma, epsilon))
    }
    forAllGen(dupCase, trials = 40) { case (st, twins, w, cfg) =>
      val gamma = math.min(cfg.gamma, st.n - 1)
      val full = FusedIndexBuilder.build(spark, st, w, cfg)
      full.adjacency.zipWithIndex.foreach { case (ns, v) =>
        assert(!ns.contains(v), s"self-loop at $v")
        assert(ns.forall(u => u >= 0 && u < st.n) && ns.distinct.length == ns.length, s"vertex $v: ${ns.toSeq}")
      }
      assert(unreachable(full.adjacency, full.seedVertex) == 0)
      val noBridge = FusedIndexBuilder.build(spark, st, w, cfg.copy(ensureConnectivity = false))
      assert(noBridge.adjacency.forall(_.length <= gamma))
      if (gamma >= 2) twins.foreach { case (a, b) =>
        assert(noBridge.adjacency(a).exists(_ != b), s"$a keeps only its twin $b")
        assert(noBridge.adjacency(b).exists(_ != a), s"$b keeps only its twin $a")
      }
    }
  }

  test("build is deterministic") {
    val a = FusedIndexBuilder.build(spark, store, w, IndexConfig(gamma = 6, epsilon = 1))
    val b = FusedIndexBuilder.build(spark, store, w, IndexConfig(gamma = 6, epsilon = 1))
    assert(a.seedVertex == b.seedVertex)
    assert(a.adjacency.map(_.toSeq).toSeq == b.adjacency.map(_.toSeq).toSeq)
  }

  test("weights shape the graph: one-hot and balanced weights differ") {
    val oneHot = FusedIndexBuilder.build(spark, store, Array(1.0, 0.0), IndexConfig(gamma = 6, epsilon = 2))
    val fused = FusedIndexBuilder.build(spark, store, Array(0.5, 0.5), IndexConfig(gamma = 6, epsilon = 2))
    assert(oneHot.adjacency.map(_.toSeq).toSeq != fused.adjacency.map(_.toSeq).toSeq)
  }

  test("build rejects degenerate inputs") {
    val tiny = new VectorStore(Array(Array(Array(1.0))))
    intercept[IllegalArgumentException](FusedIndexBuilder.build(spark, tiny, Array(1.0)))
    def rejection(ws: Array[Double]): String =
      intercept[IllegalArgumentException](FusedIndexBuilder.build(spark, store, ws)).getMessage
    assert(rejection(Array(1.0)).contains("1 weights for 2 modalities"))
    assert(rejection(Array(0.3, 0.3, 0.4)).contains("3 weights for 2 modalities"))
    assert(rejection(Array(0.5, Double.NaN)).contains("finite"))
    assert(rejection(Array(Double.PositiveInfinity, 0.5)).contains("finite"))
    assert(rejection(Array(0.0, 0.0)).contains("every weight is 0"))
  }

  test("mrngSelect caps output at gamma and skips self") {
    val ids = Array(1, 2, 0, 3)
    val ips = Array(0.9, 0.8, 0.7, 0.6)
    val sel = FusedIndexBuilder.mrngSelect(0, ids, ips, gamma = 2, store, Array(0.5, 0.5))
    assert(sel.length <= 2)
    assert(!sel.contains(0))
  }
}
