package repro.baseline

import org.apache.spark.sql.DataFrame
import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, PropSupport, SparkSpec}
import repro.core.JointSimilarity
import repro.core.Types._
import repro.graph.VectorStore
import repro.mmdata.MultiModalSynth

class BruteForceSearchSpec extends AnyFunSuite with SparkSpec with PropSupport {

  private val ds = DatasetConfig("bf", n = 250, nQueries = 25, m = 2, dim = 12,
    dLat = 8, nClusters = 12, tau = 0.35, seed = 61L)
  private val enc = EncoderConfig("enc", targetNoise = 0.7, auxNoises = Seq(0.5))
  private val w = Array(0.6, 0.4)

  private lazy val objects = MultiModalSynth.objects(spark, ds).cache()
  private lazy val queries = MultiModalSynth.queries(spark, ds, enc).collect()
  private lazy val store = VectorStore.collect(objects)

  test("topK matches a local naive scan exactly") {
    val objLocal = objects.collect().sortBy(_.id)
    val exact = BruteForceSearch.topK(queries, store, w, k = 8)
    exact.foreach { e =>
      val q = queries.find(_.qid == e.qid).get
      val qv = q.vecs.map(_.toArray).toArray
      val naive = objLocal
        .map(o => (JointSimilarity.jointIP(w, qv, o.vecs.map(_.toArray).toArray), o.id))
        .sortBy { case (ip, id) => (-ip, id) }
        .take(8)
      assert(e.results.toSeq == naive.map(_._2).toSeq, s"query ${e.qid}")
      e.ips.zip(naive.map(_._1)).foreach { case (a, b) => assert(math.abs(a - b) < 1e-9) }
    }
  }

  test("topK result lists are sorted by descending IP") {
    val exact = BruteForceSearch.topK(queries, store, w, k = 10)
    exact.foreach { e =>
      assert(e.ips.toSeq == e.ips.sortBy(-_).toSeq)
    }
  }

  test("topK with k larger than n returns all objects") {
    val exact = BruteForceSearch.topK(queries.take(3), store, w, k = 10000)
    exact.foreach(e => assert(e.results.length == ds.n))
  }

  /** Joint-IP score of every object for `q`, as (id, score) from Spark. */
  private def sparkScores(q: MMQuery): DataFrame = {
    import spark.implicits._
    val (qv, ww) = (q.vecs.map(_.toArray).toArray, w)
    objects.map(o => (o.id, JointSimilarity.jointIP(ww, qv, o.vecs.map(_.toArray).toArray))).toDF("id", "score")
  }

  /** Exploded (object, modality, position, value) view of the objects. */
  private def explodedVectors: DataFrame = {
    import spark.implicits._
    objects
      .flatMap(o => o.vecs.zipWithIndex.flatMap { case (v, mi) =>
        v.zipWithIndex.map { case (x, j) => (o.id, mi, j, x) }
      })
      .toDF("id", "mod", "pos", "val")
  }

  /** Checks `scores` (id, score) for `queries.head` against Σ_i w_i · Σ_j
    * q_ij·o_ij recomputed in SQL over the exploded views. */
  private def assertOracleScores(scores: DataFrame): Unit = {
    val q = queries.head
    val exploded = explodedVectors
    import spark.implicits._
    val qdf = q.vecs.zipWithIndex.flatMap { case (v, mi) =>
      v.zipWithIndex.map { case (x, j) => (mi, j, x) }
    }.toDF("mod", "pos", "qval")
    val wdf = w.zipWithIndex.map { case (x, i) => (i, x) }.toSeq.toDF("mod", "w")
    val sql =
      """SELECT CAST(o.id AS VARCHAR) AS id,
        |       SUM(CAST(w.w AS DOUBLE) * CAST(o.val AS DOUBLE) * CAST(q.qval AS DOUBLE)) AS score
        |FROM objs o
        |JOIN qv q ON CAST(o.mod AS INT) = CAST(q.mod AS INT) AND CAST(o.pos AS INT) = CAST(q.pos AS INT)
        |JOIN wt w ON CAST(o.mod AS INT) = CAST(w.mod AS INT)
        |GROUP BY o.id""".stripMargin
    Oracle.assertEquivalent(scores, sql, "objs" -> exploded, "qv" -> qdf, "wt" -> wdf)
  }

  test("joint-IP scores agree with a DuckDB SQL formulation (Oracle)") {
    assertOracleScores(sparkScores(queries.head).selectExpr("CAST(id AS STRING) AS id", "score"))
  }

  test("Oracle catches a wrong joint-IP score") {
    intercept[IllegalArgumentException] {
      // off by 1e-3 on purpose: the Oracle compares at 6 decimals
      assertOracleScores(sparkScores(queries.head).selectExpr("CAST(id AS STRING) AS id", "score + 0.001 AS score"))
    }
  }

  test("one-hot weights reduce topK to single-modality search") {
    val exact = BruteForceSearch.topK(queries.take(5), store, Array(1.0, 0.0), k = 5)
    val objLocal = objects.collect().sortBy(_.id)
    exact.foreach { e =>
      val q = queries.find(_.qid == e.qid).get
      val naive = objLocal
        .map(o => (repro.core.VecOps.dot(q.vecs(0).toArray, o.vecs(0).toArray), o.id))
        .sortBy { case (ip, id) => (-ip, id) }.take(5).map(_._2)
      assert(e.results.toSeq == naive.toSeq)
    }
  }

  test("empty query batch is rejected") {
    intercept[IllegalArgumentException](
      BruteForceSearch.topK(Array.empty[MMQuery], objects, w, k = 5))
    intercept[IllegalArgumentException](
      BruteForceSearch.topK(Array.empty[MMQuery], store, w, k = 5))
  }

  test("an exact duplicate pair tied at the k-th place keeps the lower id, however the objects are split") {
    import spark.implicits._
    // Joint IPs with q under w: 0.1, 0.5, 0.2, 0.5, 1.0, 0.95. Objects 1 and 3
    // are the same vectors and tie for the third place.
    val rows = Seq(Seq(0.1, 0.1), Seq(0.5, 0.5), Seq(0.2, 0.2), Seq(0.5, 0.5), Seq(1.0, 1.0), Seq(0.95, 0.95))
    val objs = rows.zipWithIndex.map { case (r, id) => MMObject(id.toLong, Seq(Seq(r(0), 0.0), Seq(r(1), 0.0))) }
    val q = MMQuery(0L, 4L, Seq(Seq(1.0, 0.0), Seq(1.0, 0.0)), Nil)
    val ww = Array(0.5, 0.5)
    val naive = objs.map(o => (JointSimilarity.jointIP(ww, q.vecs.map(_.toArray).toArray,
      o.vecs.map(_.toArray).toArray), o.id)).sortBy { case (ip, id) => (-ip, id) }.take(3).map(_._2)
    assert(naive == Seq(4L, 5L, 1L))
    val st = new VectorStore(objs.map(_.vecs.map(_.toArray).toArray).toArray)
    val byStore = BruteForceSearch.topK(Array(q), st, ww, k = 3)
    assert(byStore.head.results == naive, "store form")
    for (parts <- Seq(1, 7)) {
      val split = objs.toDS().repartition(parts)
      assert(split.rdd.getNumPartitions == parts)
      assert(BruteForceSearch.topK(Array(q), split, ww, k = 3).head.results == naive, s"$parts partitions")
    }
  }

  test("topK is the naive (-ip, id) sort, ties included") {
    // Small integer coordinates and weights make exact ties common.
    val smallCase = for {
      n <- Gen.choose(1, 24)
      m <- Gen.choose(1, 3)
      dim <- Gen.choose(1, 4)
      vecs <- Gen.listOfN(n + 3, Gen.listOfN(m, Gen.listOfN(dim, Gen.choose(-2, 2).map(_.toDouble))))
      w <- Gen.listOfN(m, Gen.oneOf(0.0, 0.5, 1.0))
      k <- Gen.choose(1, 30)
    } yield {
      val all = vecs.map(_.map(_.toArray).toArray).toArray
      val qs = all.drop(n).zipWithIndex.map { case (v, i) => MMQuery(i.toLong, 0L, v.map(_.toSeq).toSeq, Nil) }
      (new VectorStore(all.take(n)), qs, w.toArray, k)
    }
    forAllGen(smallCase) { case (st, qs, w, k) =>
      BruteForceSearch.topK(qs, st, w, k).zip(qs).foreach { case (e, q) =>
        val qv = q.vecs.map(_.toArray).toArray
        val naive = (0 until st.n).map(v => (JointSimilarity.jointIP(w, qv, st(v)), v.toLong))
          .sortBy { case (ip, id) => (-ip, id) }.take(k)
        assert(e.qid == q.qid)
        assert(e.results == naive.map(_._2), s"query ${q.qid}")
        assert(e.ips == naive.map(_._1), s"query ${q.qid}")
      }
    }
  }

  test("topK over a store runs on the driver: no Spark job, no broadcast") {
    store // collected before counting
    val (exact, jobs, broadcasts) = sparkWork(BruteForceSearch.topK(queries, store, w, k = 10))
    assert(exact.length == queries.length)
    assert(jobs == 0 && broadcasts == 0, s"$jobs jobs, $broadcasts broadcasts")
  }
}
