package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropSupport

class VecOpsSpec extends AnyFunSuite with PropSupport {

  private val vecGen: Gen[Array[Double]] =
    Gen.chooseNum(2, 16).flatMap(d => Gen.listOfN(d, Gen.chooseNum(-5.0, 5.0)).map(_.toArray))

  private val pairGen: Gen[(Array[Double], Array[Double])] =
    Gen.chooseNum(2, 16).flatMap { d =>
      for {
        a <- Gen.listOfN(d, Gen.chooseNum(-5.0, 5.0))
        b <- Gen.listOfN(d, Gen.chooseNum(-5.0, 5.0))
      } yield (a.toArray, b.toArray)
    }

  test("dot of identical unit vector is 1") {
    val v = VecOps.normalize(Array(1.0, 2.0, 3.0))
    assert(math.abs(VecOps.dot(v, v) - 1.0) < 1e-12)
  }

  test("dot is symmetric") {
    forAllGen(pairGen) { case (a, b) =>
      assert(math.abs(VecOps.dot(a, b) - VecOps.dot(b, a)) < 1e-9)
    }
  }

  test("dot is bilinear in scaling") {
    forAllGen2(pairGen, Gen.chooseNum(-3.0, 3.0)) { case ((a, b), s) =>
      assert(math.abs(VecOps.dot(a.map(_ * s), b) - s * VecOps.dot(a, b)) < 1e-6)
    }
  }

  test("dot rejects dimension mismatch") {
    intercept[IllegalArgumentException](VecOps.dot(Array(1.0), Array(1.0, 2.0)))
  }

  test("Eq. 8 identity: IP = 1 - ||a-b||^2 / 2 for unit vectors") {
    def l2sq(a: Array[Double], b: Array[Double]): Double = a.indices.map(i => (a(i) - b(i)) * (a(i) - b(i))).sum
    forAllGen(pairGen) { case (a0, b0) =>
      if (VecOps.norm(a0) > 1e-9 && VecOps.norm(b0) > 1e-9) {
        val a = VecOps.normalize(a0); val b = VecOps.normalize(b0)
        assert(math.abs(VecOps.dot(a, b) - (1.0 - l2sq(a, b) / 2.0)) < 1e-9)
      }
    }
  }

  test("normalize yields unit norm for non-zero vectors") {
    forAllGen(vecGen) { v =>
      if (VecOps.norm(v) > 1e-9) {
        assert(math.abs(VecOps.norm(VecOps.normalize(v)) - 1.0) < 1e-9)
      }
    }
  }

  test("normalize of zero vector returns a copy of the zero vector") {
    val z = Array(0.0, 0.0, 0.0)
    val n = VecOps.normalize(z)
    assert(n.toSeq == Seq(0.0, 0.0, 0.0))
    assert(!(n eq z))
  }

  test("normalize does not mutate its input") {
    val v = Array(3.0, 4.0)
    VecOps.normalize(v)
    assert(v.toSeq == Seq(3.0, 4.0))
  }

  test("axpy computes a + s*b") {
    val r = VecOps.axpy(Array(1.0, 2.0), 2.0, Array(3.0, -1.0))
    assert(r.toSeq == Seq(7.0, 0.0))
  }

  test("mix64 is deterministic") {
    assert(VecOps.mix64(42L) == VecOps.mix64(42L))
  }

  test("mix64 separates close inputs") {
    val outs = (0L until 1000L).map(VecOps.mix64).toSet
    assert(outs.size == 1000)
  }

  test("unit stays within (0, 1)") {
    forAllGen(Gen.long) { k =>
      val u = VecOps.unit(k)
      assert(u > 0.0 && u < 1.0)
    }
  }

  test("gaussian is deterministic in the key") {
    forAllGen(Gen.long) { k => assert(VecOps.gaussian(k) == VecOps.gaussian(k)) }
  }

  test("gaussian has roughly standard moments") {
    val xs = (0L until 20000L).map(i => VecOps.gaussian(VecOps.mix64(i)))
    val mean = xs.sum / xs.size
    val varr = xs.map(x => (x - mean) * (x - mean)).sum / xs.size
    assert(math.abs(mean) < 0.05, s"mean $mean")
    assert(math.abs(varr - 1.0) < 0.1, s"var $varr")
  }

  test("gaussianVec is deterministic and key-sensitive") {
    val a = VecOps.gaussianVec(1L, 2L, 3L, 8)
    val b = VecOps.gaussianVec(1L, 2L, 3L, 8)
    val c = VecOps.gaussianVec(1L, 2L, 4L, 8)
    assert(a.toSeq == b.toSeq)
    assert(a.toSeq != c.toSeq)
  }

  test("gaussianVec components differ across positions") {
    val v = VecOps.gaussianVec(9L, 9L, 9L, 16)
    assert(v.toSet.size == 16)
  }
}
