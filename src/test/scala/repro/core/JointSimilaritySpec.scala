package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropSupport

class JointSimilaritySpec extends AnyFunSuite with PropSupport {

  private def unitVec(d: Int, key: Long): Array[Double] =
    VecOps.normalize(VecOps.gaussianVec(key, 1L, 2L, d))

  /** Concatenated vector [√w₀·v₀, …]: the literal construction Lemma 1
    * is checked against. */
  private def concatenate(w: Array[Double], vecs: Array[Array[Double]]): Array[Double] = {
    require(w.length == vecs.length)
    vecs.iterator.zipWithIndex.flatMap { case (v, i) =>
      val s = math.sqrt(w(i)); v.iterator.map(_ * s)
    }.toArray
  }

  /** (weights, query vecs, object vecs) with m modalities of dim d. */
  private val caseGen: Gen[(Array[Double], Array[Array[Double]], Array[Array[Double]])] =
    for {
      m <- Gen.chooseNum(1, 4)
      d <- Gen.chooseNum(3, 12)
      ws <- Gen.listOfN(m, Gen.chooseNum(0.0, 2.0))
      k1 <- Gen.long
      k2 <- Gen.long
    } yield (
      ws.toArray,
      Array.tabulate(m)(i => unitVec(d, k1 + i * 7)),
      Array.tabulate(m)(i => unitVec(d, k2 + i * 13)),
    )

  test("Lemma 1: joint IP equals IP of the literal concatenation") {
    forAllGen(caseGen) { case (w, q, o) =>
      val viaSum = JointSimilarity.jointIP(w, q, o)
      val viaConcat = VecOps.dot(concatenate(w, q), concatenate(w, o))
      assert(math.abs(viaSum - viaConcat) < 1e-9, s"sum=$viaSum concat=$viaConcat")
    }
  }

  test("joint IP with one-hot weights reduces to the single-modality IP") {
    forAllGen(caseGen) { case (w, q, o) =>
      val m = w.length
      val oneHot = Array.tabulate(m)(i => if (i == 0) 1.0 else 0.0)
      val jp = JointSimilarity.jointIP(oneHot, q, o)
      assert(math.abs(jp - VecOps.dot(q(0), o(0))) < 1e-12)
    }
  }

  test("joint IP skips empty (absent) query modalities") {
    forAllGen(caseGen) { case (w, q, o) =>
      if (w.length >= 2) {
        val masked = q.clone(); masked(1) = Array.empty[Double]
        val jp = JointSimilarity.jointIP(w, masked, o)
        val wZero = w.clone(); wZero(1) = 0.0
        assert(math.abs(jp - JointSimilarity.jointIP(wZero, q, o)) < 1e-12)
      }
    }
  }

  test("joint IP is zero when all weights are zero") {
    forAllGen(caseGen) { case (w, q, o) =>
      assert(JointSimilarity.jointIP(Array.fill(w.length)(0.0), q, o) == 0.0)
    }
  }

  test("joint IP rejects weight/modalities mismatch") {
    val v = Array(Array(1.0, 0.0))
    intercept[IllegalArgumentException](JointSimilarity.jointIP(Array(1.0, 1.0), v, v))
  }

  test("partialJointIP with -inf threshold is exact and unpruned") {
    forAllGen(caseGen) { case (w, q, o) =>
      val exact = JointSimilarity.jointIP(w, q, o)
      val pr = JointSimilarity.partialJointIP(w, q, o, Double.NegativeInfinity)
      assert(!pr.pruned)
      assert(math.abs(pr.ip - exact) < 1e-12)
    }
  }

  test("Lemma 4 safety: pruning never fires when the true IP beats the threshold") {
    forAllGen(caseGen) { case (w, q, o) =>
      val exact = JointSimilarity.jointIP(w, q, o)
      val pr = JointSimilarity.partialJointIP(w, q, o, exact - 1e-9)
      assert(!pr.pruned, "pruned an object whose exact IP exceeds the threshold")
      assert(math.abs(pr.ip - exact) < 1e-12)
    }
  }

  test("Lemma 4 bound: when pruned, the reported bound dominates the true IP") {
    forAllGen(caseGen) { case (w, q, o) =>
      val exact = JointSimilarity.jointIP(w, q, o)
      // A threshold above the upper bound forces a prune on the first modality.
      val ub = w.map(math.abs).sum
      val pr = JointSimilarity.partialJointIP(w, q, o, ub + 1.0)
      if (pr.pruned) assert(pr.ip >= exact - 1e-12)
    }
  }

  test("partial scan stops early for high thresholds on multi-modality objects") {
    val w = Array(1.0, 1.0, 1.0)
    val d = 8
    val q = Array.tabulate(3)(i => unitVec(d, 100 + i))
    val o = Array.tabulate(3)(i => unitVec(d, 900 + i))
    val pr = JointSimilarity.partialJointIP(w, q, o, threshold = 10.0)
    assert(pr.pruned)
    assert(pr.modalitiesScanned < 3)
  }

  test("a full scan that loses to the threshold is exact and unpruned") {
    val d = 8
    val a = unitVec(d, 300); val b = unitVec(d, 301)
    val q = Array(a, b)
    val o = Array(a, b.map(-_)) // IP +1 on modality 0, -1 on modality 1
    // After modality 0 the bound is 1 + 1 = 2 > 1.5; the scan ends at 0 ≤ 1.5.
    val pr = JointSimilarity.partialJointIP(Array(1.0, 1.0), q, o, threshold = 1.5)
    assert(!pr.pruned)
    assert(pr.modalitiesScanned == 2)
    assert(math.abs(pr.ip) < 1e-12)
    // One active modality: nothing can be skipped, so nothing is pruned.
    val single = JointSimilarity.partialJointIP(Array(1.0, 0.0), q, o, threshold = 2.0)
    assert(!single.pruned && single.modalitiesScanned == 1)
    assert(math.abs(single.ip - 1.0) < 1e-12)
  }

  test("full scan reports all active modalities scanned") {
    forAllGen(caseGen) { case (w, q, o) =>
      val active = w.count(_ != 0.0)
      val pr = JointSimilarity.partialJointIP(w, q, o, Double.NegativeInfinity)
      assert(pr.modalitiesScanned == active)
    }
  }

  test("SME of identical target vectors is 0, orthogonal is 1") {
    val v = unitVec(6, 7L)
    assert(math.abs(JointSimilarity.sme(v, v)) < 1e-12)
    val w = Array(1.0, 0.0); val u = Array(0.0, 1.0)
    assert(math.abs(JointSimilarity.sme(w, u) - 1.0) < 1e-12)
  }

  test("SME is symmetric") {
    forAllGen(Gen.zip(Gen.long, Gen.long)) { case (k1, k2) =>
      val a = unitVec(8, k1); val b = unitVec(8, k2)
      assert(math.abs(JointSimilarity.sme(a, b) - JointSimilarity.sme(b, a)) < 1e-12)
    }
  }

  test("concatenate scales each block by sqrt(w)") {
    val w = Array(4.0, 9.0)
    val vecs = Array(Array(1.0, 0.0), Array(0.0, 2.0))
    val c = concatenate(w, vecs)
    assert(c.toSeq == Seq(2.0, 0.0, 0.0, 6.0))
  }
}
