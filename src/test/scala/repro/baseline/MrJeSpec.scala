package repro.baseline

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.core.Types._
import repro.eval.Metrics
import repro.graph.{FusedIndexBuilder, VectorStore}
import repro.mmdata.MultiModalSynth

class MrJeSpec extends AnyFunSuite with SparkSpec {

  private val ds = DatasetConfig("mrje", n = 400, nQueries = 50, m = 2, dim = 16,
    dLat = 8, nClusters = 20, tau = 0.35, seed = 71L)
  private val enc = EncoderConfig("enc", targetNoise = 0.7, auxNoises = Seq(0.5),
    compNoise = 0.8)
  private val idxCfg = IndexConfig(gamma = 10, epsilon = 3)

  private lazy val objects = MultiModalSynth.objects(spark, ds).cache()
  private lazy val store = VectorStore.collect(objects)
  private lazy val oneHot = (0 until ds.m).map(i =>
    FusedIndexBuilder.build(spark, store, MultiStreamRetrieval.oneHot(ds.m, i), idxCfg))
  private lazy val queries = MultiModalSynth.queries(spark, ds, enc).cache()

  test("oneHot builds a proper basis vector") {
    assert(MultiStreamRetrieval.oneHot(3, 1).toSeq == Seq(0.0, 1.0, 0.0))
  }

  test("MR returns at most k unique results per query") {
    val res = MultiStreamRetrieval.search(queries, oneHot, store, k = 10, l = 40).collect()
    assert(res.length == ds.nQueries)
    res.foreach { r =>
      assert(r.results.length <= 10)
      assert(r.results.toSet.size == r.results.length)
    }
  }

  test("MR intersection size is bounded by the per-modality list size") {
    val res = MultiStreamRetrieval.search(queries, oneHot, store, k = 10, l = 40).collect()
    res.foreach(r => assert(r.interSize <= 40))
  }

  test("MR with a single active modality degenerates to that modality's search") {
    val masked = MultiModalSynth.queries(spark, ds, enc, mask = Seq(true, false))
    val res = MultiStreamRetrieval.search(masked, oneHot, store, k = 5, l = 30).collect()
    val qs = masked.collect().map(q => q.qid -> q).toMap
    res.foreach { r =>
      val qv = qs(r.qid).vecs.map(_.toArray).toArray
      val (expect, _, _, _, _) = repro.graph.JointSearch.searchKernel(
        qv, r.qid, MultiStreamRetrieval.oneHot(2, 0), oneHot(0), store, SearchConfig(k = 30, l = 30))
      assert(r.results.toSeq == expect.take(5).map(_.toLong).toSeq)
    }
  }

  test("mergeKernel reproduces the pinned outputs") {
    // Taken while the intersection was ranked with `indexOf` on each list.
    val qs = queries.collect().sortBy(_.qid)
    val got = Seq(20 -> 5, 40 -> 10, 80 -> 10).map { case (l, k) =>
      java.util.Arrays.deepHashCode(qs.map { q =>
        val r = MultiStreamRetrieval.mergeKernel(q, oneHot.toArray, store, k, l)
        Array[AnyRef](Array(r.qid, r.interSize.toLong), r.results.toArray)
      }.toArray[AnyRef])
    }
    assert(got == Seq(872472177, -2002536085, -227883301))
  }

  test("MR rejects queries with no active modality") {
    val q = MMQuery(0L, 0L, Seq(Seq.empty, Seq.empty), Seq.empty)
    intercept[IllegalArgumentException](
      MultiStreamRetrieval.mergeKernel(q, oneHot.toArray, store, 5, 20))
  }

  private lazy val localQueries = spark.createDataset(queries.collect().toSeq)(queries.encoder)

  test("MR search over a local query Dataset starts no Spark job and creates no broadcast") {
    val (qs, indexes, st) = (localQueries, oneHot, store) // made before counting: each runs jobs
    val (res, jobs, broadcasts) =
      sparkWork(MultiStreamRetrieval.search(qs, indexes, st, k = 10, l = 40).collect())
    assert(res.length == ds.nQueries)
    assert(jobs == 0, s"$jobs Spark jobs")
    assert(broadcasts == 0, s"$broadcasts broadcasts")
  }

  test("MR search returns each query's mergeKernel output in query order, as a local Dataset") {
    val repartitioned = queries.repartition(7).cache()
    val many = queries.repartition(4 * spark.sparkContext.defaultParallelism + 3).cache()
    try for (qs <- Seq(localQueries, repartitioned, many)) {
      val expected = qs.collect().toSeq.map(MultiStreamRetrieval.mergeKernel(_, oneHot.toArray, store, 10, 40))
      val found = MultiStreamRetrieval.search(qs, oneHot, store, k = 10, l = 40)
      val (res, jobs, _) = sparkWork(found.collect())
      assert(res.toSeq == expected)
      assert(jobs == 0, s"collecting the results started $jobs Spark jobs")
    } finally { repartitioned.unpersist(); many.unpersist() }
  }

  test("MR search over an empty query Dataset returns an empty local result") {
    for (qs <- Seq(localQueries.limit(0), queries.filter(_.qid < 0))) {
      val found = MultiStreamRetrieval.search(qs, oneHot, store, k = 10, l = 40)
      val (res, jobs, _) = sparkWork(found.collect())
      assert(res.isEmpty && jobs == 0, s"${res.length} results, $jobs Spark jobs")
    }
  }

  /** The message of the `IllegalArgumentException` that MR search throws
    * for a local query Dataset of the first query and `bad`. */
  private def searchRejection(bad: MMQuery): String = {
    val qs = spark.createDataset(Seq(queries.head(), bad))(queries.encoder)
    intercept[IllegalArgumentException](
      MultiStreamRetrieval.search(qs, oneHot, store, k = 5, l = 20)).getMessage
  }

  test("MR search rejects a query with a NaN component, naming its qid") {
    val q = queries.head()
    assert(searchRejection(q.copy(qid = 1007L, vecs = Seq(q.vecs(0), q.vecs(1).updated(3, Double.NaN))))
      .contains("query 1007"))
  }

  test("MR search rejects a non-empty slot of another dimension than the store's, naming its qid") {
    val q = queries.head()
    for (bad <- Seq(Seq(q.vecs(0).take(5), q.vecs(1)), Seq(q.vecs(0), q.vecs(1).take(5))))
      assert(searchRejection(q.copy(qid = 1007L, vecs = bad)).contains("query 1007"), bad.map(_.length))
  }

  test("MR search rejects a query with no active modality, naming its qid") {
    val q = queries.head()
    assert(searchRejection(q.copy(qid = 1007L, vecs = Seq(Seq.empty, Seq.empty))).contains("query 1007"))
  }

  test("JE searches the composition vector on the target index") {
    val res = JointEmbeddingSearch.search(queries, oneHot.head, store, ds.m,
      SearchConfig(k = 10, l = 40)).collect()
    assert(res.length == ds.nQueries)
    res.foreach(r => assert(r.results.length == 10))
  }

  test("JE fails fast when the encoder has no composition head") {
    val noComp = MultiModalSynth.queries(spark, ds, enc.copy(compNoise = Double.NaN))
    val first = noComp.head().qid
    val e = intercept[IllegalArgumentException] {
      JointEmbeddingSearch.search(noComp, oneHot.head, store, ds.m,
        SearchConfig(k = 5, l = 20)).collect()
    }
    assert(e.getMessage.contains(s"query $first "), e.getMessage)
  }

  test("JE search rejects a query with an empty or null composition vector, naming its qid") {
    for (comp <- Seq(Seq.empty[Double], null)) {
      val qs = spark.createDataset(Seq(queries.head(), queries.head().copy(qid = 1007L, comp = comp)))(queries.encoder)
      val e = intercept[IllegalArgumentException](
        JointEmbeddingSearch.search(qs, oneHot.head, store, ds.m, SearchConfig(k = 5, l = 20)))
      assert(e.getMessage.contains("query 1007"), e.getMessage)
    }
  }

  test("JE search over a local query Dataset starts no Spark job and creates no broadcast") {
    val (qs, idx, st) = (localQueries, oneHot.head, store) // made before counting: each runs jobs
    val cfg = SearchConfig(k = 10, l = 40)
    val (res, jobs, broadcasts) = sparkWork(JointEmbeddingSearch.search(qs, idx, st, ds.m, cfg).collect())
    assert(jobs == 0, s"$jobs Spark jobs")
    assert(broadcasts == 0, s"$broadcasts broadcasts")
    // The same as joint search of each composition vector in slot 0, the other slots empty.
    val rewritten = spark.createDataset(qs.collect().toSeq.map(q =>
      q.copy(vecs = q.comp +: Seq.fill(ds.m - 1)(Seq.empty[Double]))))(queries.encoder)
    assert(res.toSeq == repro.graph.JointSearch.search(rewritten, idx, st, MultiStreamRetrieval.oneHot(ds.m, 0), cfg)
      .collect().toSeq)
  }

  test("MR recall is capped by its weakest modality; fused search beats it here") {
    // Joint (fused) search with balanced weights vs MR on the same data.
    val fused = FusedIndexBuilder.build(spark, store, Array(0.5, 0.5), idxCfg)
    val mr = MultiStreamRetrieval.search(queries, oneHot, store, k = 10, l = 40).collect()
    val must = repro.graph.JointSearch.search(queries, fused, store, Array(0.5, 0.5),
      SearchConfig(k = 10, l = 40)).collect()
    val mrRecall = Metrics.recallSingleGt(mr.map(r => (r.gt, r.results)).toSeq, 10)
    val mustRecall = Metrics.recallSingleGt(must.map(r => (r.gt, r.results)).toSeq, 10)
    assert(mustRecall >= mrRecall, s"must=$mustRecall mr=$mrRecall")
  }
}
