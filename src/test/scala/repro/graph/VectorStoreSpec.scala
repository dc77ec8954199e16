package repro.graph

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.{PropSupport, SparkSpec}
import repro.core.JointSimilarity
import repro.core.Types.MMObject

class VectorStoreSpec extends AnyFunSuite with SparkSpec with PropSupport {

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  test("collect rejects a NaN or infinite object component, naming the object") {
    import spark.implicits._
    for (x <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val objects = Seq(MMObject(0L, Seq(Seq(1.0, 0.0))), MMObject(1L, Seq(Seq(0.6, x)))).toDS()
      val e = intercept[IllegalArgumentException](VectorStore.collect(objects))
      assert(e.getMessage.contains("object 1"), s"$x: ${e.getMessage}")
    }
  }

  test("collect and the nested constructor reject a ragged store, naming the object and the modality") {
    import spark.implicits._
    val ok = Seq(Seq(1.0, 0.0), Seq(0.0, 1.0, 0.0))
    val ragged = Seq(MMObject(0L, ok), MMObject(1L, ok), MMObject(2L, Seq(ok(0), Seq(1.0, 0.0))))
    val fromDs = intercept[IllegalArgumentException](VectorStore.collect(ragged.toDS())).getMessage
    assert(fromDs.contains("object 2") && fromDs.contains("modality 1"), fromDs)
    val nested = ragged.map(_.vecs.map(_.toArray).toArray).toArray
    val fromArrays = intercept[IllegalArgumentException](new VectorStore(nested)).getMessage
    assert(fromArrays.contains("object 2") && fromArrays.contains("modality 1"), fromArrays)

    val short = Seq(MMObject(0L, ok), MMObject(1L, ok.take(1)))
    val fewer = intercept[IllegalArgumentException](VectorStore.collect(short.toDS())).getMessage
    assert(fewer.contains("object 1 has 1 modalities"), fewer)
    intercept[IllegalArgumentException](new VectorStore(short.map(_.vecs.map(_.toArray).toArray).toArray))
  }

  test("a store Java-serializes to its vectors' 8 bytes a component plus at most 1 KB") {
    val (n, dims) = (300, Seq(24, 16, 8))
    val nested = Array.tabulate(n)(v => dims.zipWithIndex.map { case (d, i) =>
      Array.tabulate(d)(j => math.sin(v * 31.0 + i * 7.0 + j)) }.toArray)
    val store = new VectorStore(nested)
    val buf = new ByteArrayOutputStream
    val out = new ObjectOutputStream(buf)
    out.writeObject(store); out.close()
    assert(buf.size <= 8L * n * dims.sum + 1024, s"${buf.size} bytes")
    val back = new ObjectInputStream(new ByteArrayInputStream(buf.toByteArray)).readObject().asInstanceOf[VectorStore]
    assert(back.n == n && back.m == dims.length)
    assert(back.vecs.map(_.map(_.toSeq).toSeq).toSeq == nested.map(_.map(_.toSeq).toSeq).toSeq)
  }

  test("flat scans equal the nested jointIP, partialJointIP and the previous scans bit for bit") {
    // Integer coordinates make ties; continuous ones make any change of
    // summation order show in the low bits. A modality may have dimension 0.
    val coord = Gen.oneOf(Gen.choose(-2, 2).map(_.toDouble), Gen.choose(-1.0, 1.0))
    val storeCase = for {
      n <- Gen.choose(1, 30)
      m <- Gen.choose(1, 4)
      dims <- Gen.listOfN(m, Gen.choose(0, 5))
      vecs <- Gen.listOfN(n, Gen.sequence[List[List[Double]], List[Double]](dims.map(d => Gen.listOfN(d, coord))))
      q <- Gen.sequence[List[List[Double]], List[Double]](dims.map(d =>
        Gen.oneOf(Gen.const(Nil), Gen.listOfN(d, coord))))
      w <- Gen.listOfN(m, Gen.oneOf(Gen.oneOf(0.0, 0.5, 1.0, 2.0), Gen.choose(-0.5, 2.0)))
      thresholds <- Gen.listOfN(4, Gen.oneOf(Gen.const(Double.NegativeInfinity), Gen.choose(-4.0, 4.0)))
      k <- Gen.choose(1, n + 2)
      skip <- Gen.choose(-1, n - 1)
    } yield (vecs.map(_.map(_.toArray).toArray).toArray, q.map(_.toArray).toArray, w.toArray, thresholds, k, skip)

    forAllGen(storeCase, trials = 200) { case (nested, q, w, thresholds, k, skip) =>
      val store = new VectorStore(nested)
      assert(store.vecs.map(_.map(_.toSeq).toSeq).toSeq == nested.map(_.map(_.toSeq).toSeq).toSeq)
      val scan = new JointSimilarity.PartialScan(w, q, store.data, store.offsets)
      for (v <- nested.indices) {
        assert(store(v).map(_.toSeq).toSeq == nested(v).map(_.toSeq).toSeq)
        assert(bits(scan(v, Double.NegativeInfinity)) == bits(JointSimilarity.jointIP(w, q, nested(v))), s"object $v")
        for (u <- nested.indices)
          assert(bits(store.pairIP(w, v, u)) == bits(JointSimilarity.jointIP(w, nested(v), nested(u))), s"pair $v, $u")
        for (t <- thresholds) {
          val ip = scan(v, t)
          val (rIp, rPruned, rScanned) = ReferenceStore.partialScan(w, q, nested(v), t)
          assert((bits(ip), scan.pruned, scan.scanned) == ((bits(rIp), rPruned, rScanned)), s"object $v at $t")
          val pr = JointSimilarity.partialJointIP(w, q, nested(v), t)
          assert((bits(pr.ip), pr.pruned, pr.modalitiesScanned) == ((bits(rIp), rPruned, rScanned)), s"object $v at $t")
        }
      }
      val (ids, ips) = store.topK(q, w, k, skip)
      val (rIds, rIps) = ReferenceStore.topK(nested, q, w, k, skip)
      assert(ids.toSeq == rIds.toSeq)
      assert(ips.map(bits).toSeq == rIps.map(bits).toSeq)
    }
  }
}
