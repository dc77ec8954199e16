package repro.graph

import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener
import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.{PropSupport, SparkSpec}
import repro.baseline.BruteForceSearch
import repro.core.Types._
import repro.eval.Metrics
import repro.mmdata.MultiModalSynth

class JointSearchSpec extends AnyFunSuite with SparkSpec with PropSupport {

  private val ds = DatasetConfig("js", n = 400, nQueries = 50, m = 2, dim = 16,
    dLat = 8, nClusters = 20, tau = 0.35, seed = 51L)
  private val enc = EncoderConfig("enc", targetNoise = 0.7, auxNoises = Seq(0.5))
  private val w = Array(0.5, 0.5)

  private lazy val objects = MultiModalSynth.objects(spark, ds).cache()
  private lazy val store = VectorStore.collect(objects)
  private lazy val index = FusedIndexBuilder.build(spark, store, w, IndexConfig(gamma = 10, epsilon = 3))
  private lazy val queries = MultiModalSynth.queries(spark, ds, enc).cache()
  private lazy val exact = BruteForceSearch.topK(queries.collect(), store, w, k = 10)

  test("search returns k results, unique valid ids, for every query") {
    val res = JointSearch.search(queries, index, store, w, SearchConfig(k = 10, l = 40)).collect()
    assert(res.length == ds.nQueries)
    res.foreach { r =>
      assert(r.results.length == 10)
      assert(r.results.toSet.size == 10)
      r.results.foreach(id => assert(id >= 0 && id < ds.n))
    }
  }

  test("results are ordered by descending joint IP") {
    val qs = queries.collect()
    val res = JointSearch.search(queries, index, store, w, SearchConfig(k = 10, l = 40)).collect()
    val byQid = qs.map(q => q.qid -> q).toMap
    res.foreach { r =>
      val qv = byQid(r.qid).vecs.map(_.toArray).toArray
      val ips = r.results.map(id => repro.core.JointSimilarity.jointIP(w, qv, store(id.toInt)))
      assert(ips == ips.sortBy(-_), s"unsorted result IPs for query ${r.qid}: $ips")
    }
  }

  test("graph search approaches exact search (Recall@10(10) high at moderate l)") {
    val res = JointSearch.search(queries, index, store, w, SearchConfig(k = 10, l = 80)).collect()
    val gtSets = exact.map(e => e.qid -> e.results.toSet).toMap
    val recall = Metrics.recallAgainstSets(res.map(r => (r.results, gtSets(r.qid))).toSeq, 10)
    assert(recall > 0.9, s"recall=$recall")
  }

  test("larger l does not hurt recall (Table XII shape)") {
    val gtSets = exact.map(e => e.qid -> e.results.toSet).toMap
    def recallAt(l: Int): Double = {
      val res = JointSearch.search(queries, index, store, w, SearchConfig(k = 10, l = l)).collect()
      Metrics.recallAgainstSets(res.map(r => (r.results, gtSets(r.qid))).toSeq, 10)
    }
    val rSmall = recallAt(15)
    val rLarge = recallAt(120)
    assert(rLarge >= rSmall - 1e-9, s"l=15: $rSmall, l=120: $rLarge")
    assert(rLarge > 0.95, s"rLarge=$rLarge")
  }

  test("Lemma 4: partial-distance pruning returns bit-identical results") {
    val withOpt = JointSearch.search(queries, index, store, w,
      SearchConfig(k = 10, l = 60, usePartialDistance = true)).collect().sortBy(_.qid)
    val without = JointSearch.search(queries, index, store, w,
      SearchConfig(k = 10, l = 60, usePartialDistance = false)).collect().sortBy(_.qid)
    assert(withOpt.map(_.results).toSeq == without.map(_.results).toSeq)
  }

  test("Lemma 4: pruning saves modality dot products") {
    val withOpt = JointSearch.search(queries, index, store, w,
      SearchConfig(k = 10, l = 60, usePartialDistance = true)).collect()
    val without = JointSearch.search(queries, index, store, w,
      SearchConfig(k = 10, l = 60, usePartialDistance = false)).collect()
    assert(withOpt.map(_.dotProducts).sum < without.map(_.dotProducts).sum)
    assert(withOpt.map(_.prunedObjects).sum > 0)
  }

  test("Lemma 3: f(eta) — sum of R's IPs — is monotonically non-decreasing") {
    val qs = queries.collect().take(10)
    qs.foreach { q =>
      val qv = q.vecs.map(_.toArray).toArray
      val (_, _, _, _, fEta) =
        JointSearch.searchKernel(qv, q.qid, w, index, store, SearchConfig(k = 10, l = 40))
      fEta.sliding(2).foreach {
        case Array(a, b) => assert(b >= a - 1e-9, s"f(eta) decreased: $a -> $b")
        case _           => ()
      }
    }
  }

  test("search visits far fewer objects than a full scan (index-pruned scan)") {
    val res = JointSearch.search(queries, index, store, w, SearchConfig(k = 10, l = 40)).collect()
    val avgDots = res.map(_.dotProducts).sum.toDouble / res.length
    val fullScanDots = ds.n * ds.m
    assert(avgDots < fullScanDots / 2.0, s"avgDots=$avgDots vs full=$fullScanDots")
  }

  test("missing aux modality (t < m) still searches on the target slot alone") {
    val masked = MultiModalSynth.queries(spark, ds, enc, mask = Seq(true, false))
    val res = JointSearch.search(masked, index, store, w, SearchConfig(k = 5, l = 30)).collect()
    assert(res.forall(_.results.length == 5))
  }

  test("search with l capped by n still terminates") {
    val res = JointSearch.search(queries.limit(3), index, store, w,
      SearchConfig(k = 10, l = 10000)).collect()
    assert(res.forall(_.results.length == 10))
  }

  test("search is deterministic") {
    val a = JointSearch.search(queries, index, store, w, SearchConfig(k = 10, l = 40))
      .collect().sortBy(_.qid).map(_.results)
    val b = JointSearch.search(queries, index, store, w, SearchConfig(k = 10, l = 40))
      .collect().sortBy(_.qid).map(_.results)
    assert(a.toSeq == b.toSeq)
  }

  private lazy val localQueries = spark.createDataset(queries.collect().toSeq)(queries.encoder)

  test("search over a local query Dataset starts no Spark job and creates no broadcast") {
    val (qs, idx, st) = (localQueries, index, store) // made before counting: each runs jobs
    val (res, jobs, broadcasts) = sparkWork(JointSearch.search(qs, idx, st, w).collect())
    assert(res.length == ds.nQueries)
    assert(jobs == 0, s"$jobs Spark jobs")
    assert(broadcasts == 0, s"$broadcasts broadcasts")
  }

  test("search returns each query's searchKernel output in query order, as a local Dataset") {
    val cfg = SearchConfig(k = 10, l = 40)
    val repartitioned = queries.repartition(7).cache()
    try for (qs <- Seq(localQueries, repartitioned)) {
      val expected = qs.collect().toSeq.map { q =>
        val (ids, dots, pruned, hops, _) =
          JointSearch.searchKernel(q.vecs.map(_.toArray).toArray, q.qid, w, index, store, cfg)
        JointSearch.SearchResult(q.qid, q.gt, ids.map(_.toLong).toSeq, dots, pruned, hops)
      }
      val found = JointSearch.search(qs, index, store, w, cfg)
      val (res, jobs, _) = sparkWork(found.collect())
      assert(res.toSeq == expected)
      assert(jobs == 0, s"collecting the results started $jobs Spark jobs")
    } finally repartitioned.unpersist()
  }

  /** The queries, then odd rows that `rows` must keep as `collect()` does:
    * an empty slot, a null `comp`, a null slot and null `vecs`. */
  private lazy val oddQueries = {
    val q = queries.head()
    spark.createDataset(queries.collect().toSeq ++ Seq(q.copy(qid = 1L, vecs = Seq(q.vecs(0), Seq.empty)),
      q.copy(qid = 2L, comp = null), q.copy(qid = 3L, vecs = Seq(q.vecs(0), null)),
      q.copy(qid = 4L, vecs = null)))(queries.encoder)
  }

  test("the rows of a local query Dataset are read as collect() returns them") {
    assert(JointSearch.rows(oddQueries).toSeq == oddQueries.collect().toSeq)
  }

  test("the rows of a cached, shuffled, generated or reordered query Dataset are read as collect() returns them") {
    val parts = 4 * spark.sparkContext.defaultParallelism + 3
    val cached = oddQueries.repartition(parts).cache()
    val shuffled = oddQueries.repartition(parts)
    val generated = MultiModalSynth.queries(spark, ds, enc)
    // Columns out of MMQuery's order: read by the collect() fallback.
    val reordered = oddQueries.toDF().select("comp", "vecs", "gt", "qid").as[MMQuery](queries.encoder)
    assert(reordered.schema != oddQueries.schema)
    try for ((name, qs) <- Seq("cached" -> cached, "shuffled" -> shuffled, "generated" -> generated,
        "reordered" -> reordered)) {
      val expected = qs.collect().toSeq
      assert(expected.nonEmpty && JointSearch.rows(qs).toSeq == expected, name)
    } finally cached.unpersist()
  }

  test("reading a cached query Dataset of many partitions runs one job of at most defaultParallelism tasks") {
    val dp = spark.sparkContext.defaultParallelism
    val cached = oddQueries.repartition(4 * dp + 3).cache()
    try {
      assert(cached.count() == ds.nQueries + 4)
      val (read, jobTasks, _) = sparkJobs(JointSearch.rows(cached))
      assert(jobTasks.length == 1 && jobTasks.head <= dp, s"jobs of ${jobTasks.mkString(", ")} tasks, $dp cores")
      assert(read.toSeq == cached.collect().toSeq)
    } finally cached.unpersist()
  }

  test("search over a local query Dataset runs no query before it returns") {
    val (qs, idx, st) = (localQueries, index, store)
    val seen = new java.util.concurrent.ConcurrentLinkedQueue[QueryExecution]
    val listener = new QueryExecutionListener {
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = seen.add(qe)
      override def onFailure(funcName: String, qe: QueryExecution, e: Exception): Unit = seen.add(qe)
    }
    // Runs a marker query and waits until the listener has seen it, so that
    // every query the listener saw before it ran before the marker.
    def marker(): Unit = {
      val m = spark.range(1)
      m.collect()
      val deadline = System.nanoTime() + 30e9.toLong
      while (!seen.contains(m.queryExecution) && System.nanoTime() < deadline) Thread.sleep(5)
      assert(seen.contains(m.queryExecution), "the listener did not see the marker query")
    }
    spark.listenerManager.register(listener)
    try {
      marker()
      seen.clear()
      JointSearch.search(qs, idx, st, w)
      marker()
      assert(seen.size == 1, s"${seen.size - 1} queries ran inside search")
    } finally spark.listenerManager.unregister(listener)
  }

  test("search over an empty query Dataset returns an empty local result") {
    for (qs <- Seq(localQueries.limit(0), queries.filter(_.qid < 0))) {
      val found = JointSearch.search(qs, index, store, w)
      val (res, jobs, _) = sparkWork(found.collect())
      assert(res.isEmpty && jobs == 0, s"${res.length} results, $jobs Spark jobs")
    }
  }

  /** The message of the `IllegalArgumentException` that `search` throws
    * for a local query Dataset of the first query and `bad`. */
  private def searchRejection(bad: MMQuery): String = {
    val qs = spark.createDataset(Seq(queries.head(), bad))(queries.encoder)
    intercept[IllegalArgumentException](JointSearch.search(qs, index, store, w)).getMessage
  }

  test("search rejects a query with a NaN component, naming its qid") {
    val q = queries.head()
    assert(searchRejection(q.copy(qid = 1007L, vecs = Seq(q.vecs(0), q.vecs(1).updated(3, Double.NaN))))
      .contains("query 1007"))
  }

  test("search rejects a non-empty slot of another dimension than the store's, naming its qid") {
    val q = queries.head()
    assert(searchRejection(q.copy(qid = 1007L, vecs = Seq(q.vecs(0), q.vecs(1).take(5)))).contains("query 1007"))
  }

  test("search rejects a query with no slot both non-empty and weighted, naming its qid") {
    val q = queries.head()
    assert(searchRejection(q.copy(qid = 1007L, vecs = Seq(Seq.empty, Seq.empty))).contains("query 1007"))
  }

  /** `deepHashCode` of every kernel output (ids, dots, pruned unless
    * `withPruned` is off, hops and the raw bits of f(η)) over `qs`, in qid
    * order. */
  private def kernelHash(qs: Seq[MMQuery], cfg: SearchConfig, withPruned: Boolean = true): Int =
    java.util.Arrays.deepHashCode(qs.sortBy(_.qid).map { q =>
      val (ids, dots, pruned, hops, fEta) =
        JointSearch.searchKernel(q.vecs.map(_.toArray).toArray, q.qid, w, index, store, cfg)
      val counts = if (withPruned) Array(dots, pruned, hops) else Array(dots, hops)
      Array[AnyRef](ids, counts, fEta.map(java.lang.Double.doubleToRawLongBits))
    }.toArray[AnyRef])

  private lazy val pinnedCases: Seq[(Seq[MMQuery], SearchConfig)] = {
    val masked = MultiModalSynth.queries(spark, ds, enc, mask = Seq(true, false)).collect().toSeq
    val all = queries.collect().toSeq
    Seq(all -> SearchConfig(k = 10, l = 40),
      all -> SearchConfig(k = 10, l = 60, usePartialDistance = false),
      masked -> SearchConfig(k = 5, l = 30))
  }

  test("searchKernel reproduces the pinned outputs") {
    // pruned counts only scans that skipped an active modality; the l = 40
    // and masked values were re-taken when full scans stopped counting.
    val got = pinnedCases.map { case (qs, cfg) => kernelHash(qs, cfg) }
    assert(got == Seq(-1965470486, 193632991, 468509570))
  }

  test("searchKernel reproduces the pinned ids, dots, hops and f(eta)") {
    // Taken while full scans still counted as pruned: these outputs do not
    // depend on that count.
    val got = pinnedCases.map { case (qs, cfg) => kernelHash(qs, cfg, withPruned = false) }
    assert(got == Seq(1606681599, 993546279, 1281433872))
  }

  test("searchKernel equals the reference kernel on random small graphs") {
    val coord = Gen.choose(-2, 2).map(_.toDouble) // integer coordinates, so IPs tie
    val kernelCase = for {
      n <- Gen.choose(2, 40)
      m <- Gen.choose(1, 3)
      dim <- Gen.choose(1, 4)
      vecs <- Gen.listOfN(n, Gen.listOfN(m, Gen.listOfN(dim, coord)))
      adj <- Gen.listOfN(n, Gen.listOf(Gen.choose(0, n - 1)).map(_.distinct.take(6)))
      seedVertex <- Gen.choose(0, n - 1)
      q <- Gen.listOfN(m, Gen.oneOf(Gen.const(Nil), Gen.listOfN(dim, coord)))
      w <- Gen.listOfN(m, Gen.oneOf(0.0, 0.5, 1.0, 2.0))
      k <- Gen.choose(1, n + 2) // k > n returns all n vertices
      l <- Gen.choose(k, n + 5) // l >= n runs the seeding path that draws every vertex
      partial <- Gen.oneOf(true, false)
      qid <- Gen.choose(0L, 1000L)
    } yield (new VectorStore(vecs.map(_.map(_.toArray).toArray).toArray),
      FusedIndex(adj.map(_.toArray).toArray, seedVertex, w.toArray),
      q.map(_.toArray).toArray, w.toArray, SearchConfig(k, l, partial), qid)

    forAllGen(kernelCase, trials = 300) { case (st, idx, qv, ww, cfg, qid) =>
      if (!qv.indices.exists(i => qv(i).nonEmpty && ww(i) != 0.0))
        intercept[IllegalArgumentException](JointSearch.searchKernel(qv, qid, ww, idx, st, cfg))
      else {
        val (ids, dots, pruned, hops, fEta) = JointSearch.searchKernel(qv, qid, ww, idx, st, cfg)
        val (rIds, rDots, rPruned, rHops, rFEta) = ReferenceKernel.searchKernel(qv, qid, ww, idx, st, cfg)
        assert(ids.toSeq == rIds.toSeq)
        assert((dots, pruned, hops) == ((rDots, rPruned, rHops)))
        assert(fEta.map(java.lang.Double.doubleToRawLongBits).toSeq ==
          rFEta.map(java.lang.Double.doubleToRawLongBits).toSeq)
      }
    }
  }

  test("searchKernel alternating between stores of different n on one thread equals the reference kernel") {
    // Its scored-vertex tags are per thread: a small store's query must not
    // see the spec store's marks, nor the next spec query the small store's.
    val small = new VectorStore(Array.tabulate(7)(v => Array(Array(v % 3 - 1.0, 1.0), Array(1.0, v % 2.0))))
    val smallIndex = FusedIndex(Array.tabulate(7)(v => Array((v + 1) % 7, (v + 3) % 7)), 0, w)
    val cfg = SearchConfig(k = 5, l = 6)
    def same(qv: Array[Array[Double]], qid: Long, idx: FusedIndex, st: VectorStore): Unit = {
      val (ids, dots, pruned, hops, fEta) = JointSearch.searchKernel(qv, qid, w, idx, st, cfg)
      val (rIds, rDots, rPruned, rHops, rFEta) = ReferenceKernel.searchKernel(qv, qid, w, idx, st, cfg)
      assert(ids.toSeq == rIds.toSeq && (dots, pruned, hops) == ((rDots, rPruned, rHops)), s"query $qid")
      assert(fEta.map(java.lang.Double.doubleToRawLongBits).toSeq ==
        rFEta.map(java.lang.Double.doubleToRawLongBits).toSeq, s"query $qid")
    }
    queries.collect().take(5).foreach { q =>
      same(q.vecs.map(_.toArray).toArray, q.qid, index, store)
      same(Array(Array(1.0, 0.5), Array(0.0, 1.0)), q.qid, smallIndex, small)
    }
  }

  /** The message of the `IllegalArgumentException` that searching `qv` with
    * `ww` as query 7 throws. */
  private def rejection(qv: Array[Array[Double]], ww: Array[Double]): String =
    intercept[IllegalArgumentException](
      JointSearch.searchKernel(qv, 7L, ww, index, store, SearchConfig())).getMessage

  private lazy val aQuery: Array[Array[Double]] = queries.head().vecs.map(_.toArray).toArray

  test("searchKernel rejects weights that do not match the store's modalities") {
    assert(rejection(aQuery, Array(1.0)).contains("query 7"))
    assert(rejection(aQuery, Array(0.3, 0.3, 0.4)).contains("query 7"))
  }

  test("searchKernel rejects a query with more slots than the store has modalities") {
    assert(rejection(aQuery :+ aQuery(0), w).contains("query 7"))
  }

  test("searchKernel rejects a non-empty slot of another dimension than the store's") {
    assert(rejection(Array(aQuery(0), aQuery(1).take(5)), w).contains("query 7"))
  }

  test("searchKernel rejects a query with no slot both non-empty and weighted") {
    assert(rejection(Array(Array.empty[Double], Array.empty[Double]), w).contains("query 7"))
    assert(rejection(Array(aQuery(0), Array.empty[Double]), Array(0.0, 1.0)).contains("query 7"))
  }

  test("searchKernel rejects a NaN or infinite query component") {
    for (x <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity))
      assert(rejection(Array(aQuery(0), aQuery(1).updated(3, x)), w).contains("query 7"), s"$x")
  }

  test("searchKernel accepts a zero-vector query slot and returns k distinct in-range ids") {
    val zero = Array.fill(ds.dim)(0.0)
    for (qv <- Seq(Array(zero, aQuery(1)), Array(zero, zero))) {
      val (ids, _, _, _, _) = JointSearch.searchKernel(qv, 7L, w, index, store, SearchConfig(k = 10, l = 40))
      assert(ids.length == 10 && ids.distinct.length == 10)
      assert(ids.forall(id => id >= 0 && id < ds.n))
    }
  }
}
