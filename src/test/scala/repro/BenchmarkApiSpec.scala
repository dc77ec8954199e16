package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.baseline.BruteForceSearch
import repro.core.Types._
import repro.core.WeightLearning
import repro.eval.Metrics
import repro.graph.{FusedIndex, FusedIndexBuilder, JointSearch, VectorStore}
import repro.mmdata.MultiModalSynth

/** The program API that the `mstmbench` benchmark's `Main` and `Gate`
  * compile against, used the way they use it, on a small input.
  * `mstmbench` is a separate build that the unit tests do not compile, so
  * this suite is what fails first when a change to `src/main` would break
  * the benchmark. Keep it in step with `mstmbench/src`: each call below has
  * a caller there.
  */
class BenchmarkApiSpec extends AnyFunSuite with SparkSpec {

  private val ds = DatasetConfig("api", n = 300, nQueries = 12, m = 2, dim = 8,
    dLat = 6, nClusters = 12, tau = 0.35, seed = 63L)
  private val enc = EncoderConfig("enc", targetNoise = 0.7, auxNoises = Seq(0.5))
  private val searchCfg = SearchConfig(k = 10, l = 40)

  test("set-up, search and exact-scan calls of the benchmark's Main") {
    import spark.implicits._
    val objects = MultiModalSynth.objects(spark, ds).cache()
    try {
      val projs = Array.tabulate(ds.m)(i => MultiModalSynth.projection(ds, i))
      val anchors = (0 until 40).map(i =>
        MultiModalSynth.mkQuery(ds, enc, Seq(true, true), seedTag = 1L, qid = i.toLong, projs))
      val evalQueries = (0 until ds.nQueries).map(i =>
        MultiModalSynth.mkQuery(ds, enc, Seq(true, i % 2 == 0), seedTag = 0L, qid = i.toLong, projs)).toArray

      val (store, _) = Metrics.timed(VectorStore.collect(objects))
      val nested: Array[Array[Array[Double]]] = store.vecs
      val copy = new VectorStore(nested)
      assert(copy.n == ds.n && copy.vecs.map(_.map(_.toSeq).toSeq).toSeq == nested.map(_.map(_.toSeq).toSeq).toSeq)

      val w: Array[Double] = WeightLearning.learn(anchors.toDS(), objects, ds.m).weights
      val index = FusedIndexBuilder.build(spark, store, w, IndexConfig(gamma = 8))
      assert(index.maxDegree >= 1)

      val replay = evalQueries.map(q =>
        q.qid -> JointSearch.searchKernel(q.vecs.map(_.toArray).toArray, q.qid, w, index, store, searchCfg)).toMap
      val one: JointSearch.SearchResult =
        JointSearch.search(spark.createDataset(Seq(evalQueries.head)), index, store, w, searchCfg).collect().head
      assert(one.results == replay(one.qid)._1.map(_.toLong).toSeq)
      val batch = JointSearch.search(spark.createDataset(evalQueries.toSeq), index, copy, w, searchCfg).collect()
      batch.foreach(r => assert(r.results == replay(r.qid)._1.map(_.toLong).toSeq, s"query ${r.qid}"))
      assert(Metrics.qps(batch.length, 1.0) > 0 && Metrics.recallSingleGt(batch.map(r => r.gt -> r.results).toSeq, 10) >= 0)

      val exact = BruteForceSearch.topK(evalQueries, objects, w, searchCfg.k)
      assert(exact.map(_.qid).toSeq == evalQueries.map(_.qid).toSeq)
      val recall = Metrics.recallAgainstSets(exact.toSeq.map(e => batch.find(_.qid == e.qid).get.results -> e.results.toSet), 10)
      assert(recall > 0.5, s"recall $recall")
    } finally objects.unpersist()
  }

  test("the gate's self-test index calls") {
    // The index does not check its graph: the gate must see each corruption
    // as built, or its self-test, run before every benchmark run, fails.
    val n = 50
    val adj = Array.tabulate(n)(v => Array((v + 1) % n, (v + 7) % n))
    def same(index: FusedIndex, expected: Array[Array[Int]]): Unit =
      assert(index.adjacency.map(_.toSeq).toSeq == expected.map(_.toSeq).toSeq)
    val index = FusedIndex(adj, seedVertex = 0, weights = Array(0.5, 0.5))
    assert(index.maxDegree == 2 && index.n == n && index.seedVertex == 0)
    same(index, adj)
    def withEdges(v: Int, nbrs: Array[Int]) = index.copy(adjacency = adj.updated(v, nbrs))
    same(withEdges(5, Array(5, 6)), adj.updated(5, Array(5, 6)))
    same(withEdges(5, Array(6, n)), adj.updated(5, Array(6, n)))
    val missing = index.copy(adjacency = adj.init)
    assert(missing.n == n - 1)
    same(missing, adj.init)
    val cut = index.copy(adjacency = adj.map(_.filter(_ != 33)))
    assert(cut.maxDegree == 2)
    same(cut, adj.map(_.filter(_ != 33)))
    same(FusedIndex(adj.updated(5, Array(5, 6)), seedVertex = 0, weights = Array(0.5, 0.5)), adj.updated(5, Array(5, 6)))
  }
}
