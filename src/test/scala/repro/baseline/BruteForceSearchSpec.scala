package repro.baseline

import org.apache.spark.sql.DataFrame
import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec}
import repro.core.JointSimilarity
import repro.core.Types._
import repro.mmdata.MultiModalSynth

class BruteForceSearchSpec extends AnyFunSuite with SparkSpec {

  private val ds = DatasetConfig("bf", n = 250, nQueries = 25, m = 2, dim = 12,
    dLat = 8, nClusters = 12, tau = 0.35, seed = 61L)
  private val enc = EncoderConfig("enc", targetNoise = 0.7, auxNoises = Seq(0.5))
  private val w = Array(0.6, 0.4)

  private lazy val objects = MultiModalSynth.objects(spark, ds).cache()
  private lazy val queries = MultiModalSynth.queries(spark, ds, enc).collect()

  test("topK matches a local naive scan exactly") {
    val objLocal = objects.collect().sortBy(_.id)
    val exact = BruteForceSearch.topK(queries, objects, w, k = 8)
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
    val exact = BruteForceSearch.topK(queries, objects, w, k = 10)
    exact.foreach { e =>
      assert(e.ips.toSeq == e.ips.sortBy(-_).toSeq)
    }
  }

  test("topK with k larger than n returns all objects") {
    val exact = BruteForceSearch.topK(queries.take(3), objects, w, k = 10000)
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
    val exact = BruteForceSearch.topK(queries.take(5), objects, Array(1.0, 0.0), k = 5)
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
  }
}
