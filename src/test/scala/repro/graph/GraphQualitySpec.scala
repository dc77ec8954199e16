package repro.graph

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.{PropSupport, SparkSpec}
import repro.core.{JointSimilarity, VecOps}
import repro.core.Types._
import repro.mmdata.MultiModalSynth

class GraphQualitySpec extends AnyFunSuite with SparkSpec with PropSupport {

  private val ds = DatasetConfig("gq", n = 200, nQueries = 10, m = 2, dim = 12,
    dLat = 8, nClusters = 10, tau = 0.35, seed = 91L)
  private val w = Array(0.5, 0.5)

  private lazy val store = VectorStore.collect(MultiModalSynth.objects(spark, ds))
  private lazy val exact = GraphQuality.exactNeighbors(store, w, gamma = 6)

  test("exactNeighbors returns gamma neighbors per vertex, no self") {
    assert(exact.length == ds.n)
    exact.zipWithIndex.foreach { case (ns, o) =>
      assert(ns.length == 6)
      assert(!ns.contains(o))
      assert(ns.toSet.size == 6)
    }
  }

  test("exactNeighbors matches a driver-side naive computation") {
    (0 until 10).foreach { o =>
      val naive = (0 until store.n).filter(_ != o)
        .map(v => (JointSimilarity.jointIP(w, store(o), store(v)), v))
        .sortBy { case (ip, v) => (-ip, v) }
        .take(6).map(_._2).toSet
      assert(exact(o).toSet == naive, s"vertex $o")
    }
  }

  test("exactNeighbors lists are the naive top-γ in (-ip, id) order, ties included") {
    // Small integer coordinates and weights make exact ties common.
    val smallCase = for {
      n <- Gen.choose(2, 24)
      m <- Gen.choose(1, 3)
      dim <- Gen.choose(1, 4)
      vecs <- Gen.listOfN(n, Gen.listOfN(m, Gen.listOfN(dim, Gen.choose(-2, 2).map(_.toDouble))))
      w <- Gen.listOfN(m, Gen.oneOf(0.0, 0.5, 1.0))
      gamma <- Gen.choose(1, 30)
    } yield (new VectorStore(vecs.map(_.map(_.toArray).toArray).toArray), w.toArray, gamma)
    forAllGen(smallCase) { case (st, w, gamma) =>
      val got = GraphQuality.exactNeighbors(st, w, gamma)
      (0 until st.n).foreach { o =>
        val naive = (0 until st.n).filter(_ != o)
          .map(v => (JointSimilarity.jointIP(w, st(o), st(v)), v))
          .sortBy { case (ip, v) => (-ip, v) }
          .take(gamma).map(_._2)
        assert(got(o).toSeq == naive, s"vertex $o")
      }
    }
  }

  test("quality of the exact graph is 1") {
    assert(GraphQuality.quality(exact, exact, 6) == 1.0)
  }

  test("quality of a shifted graph is below 1") {
    val shifted = exact.map(ns => ns.map(v => (v + 1) % store.n))
    assert(GraphQuality.quality(shifted, exact, 6) < 1.0)
  }

  test("quality of random lists is near zero") {
    val rnd = Array.tabulate(store.n) { o =>
      Array.tabulate(6)(j => math.floorMod(VecOps.mix64(o * 31 + j), store.n.toLong).toInt)
    }
    assert(GraphQuality.quality(rnd, exact, 6) < 0.2)
  }

  test("quality rejects mismatched graph sizes") {
    intercept[IllegalArgumentException](GraphQuality.quality(exact.take(3), exact, 6))
  }
}
