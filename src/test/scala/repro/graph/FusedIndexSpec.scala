package repro.graph

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport

class FusedIndexSpec extends AnyFunSuite with PropSupport {

  private def nested(adj: Array[Array[Int]]): Seq[Seq[Int]] = adj.map(_.toSeq).toSeq

  /** Random graphs of 0–40 vertices whose lists may be empty, repeat an id,
    * loop to the vertex itself or point outside [0, n). */
  private val graphs: Gen[Array[Array[Int]]] = for {
    n <- Gen.choose(0, 40)
    lists <- Gen.listOfN(n, Gen.oneOf(Gen.const(Nil), Gen.listOf(Gen.choose(-2, n + 2))))
  } yield lists.map(_.toArray).toArray

  test("the packed index gives back every list, and n and maxDegree, of the nested form") {
    forAllGen(graphs, trials = 200) { adj =>
      val index = FusedIndex(adj, seedVertex = 0, weights = Array(1.0))
      assert(nested(index.adjacency) == nested(adj))
      assert(index.n == adj.length)
      assert(index.maxDegree == (if (adj.isEmpty) 0 else adj.map(_.length).max))
      assert(index.offsets.length == adj.length + 1 && index.targets.length == adj.map(_.length).sum)
    }
  }

  test("copy replaces the parts it is given and keeps the others") {
    val adj = Array(Array(1, 2), Array.emptyIntArray, Array(0))
    val w = Array(0.25, 0.75)
    val index = FusedIndex(adj, seedVertex = 2, weights = w)
    val reseeded = index.copy(seedVertex = 1)
    assert(nested(reseeded.adjacency) == nested(adj) && reseeded.seedVertex == 1 && (reseeded.weights eq w))
    val rewired = index.copy(adjacency = Array(Array(2), Array(0, 2)))
    assert(nested(rewired.adjacency) == Seq(Seq(2), Seq(0, 2)) && rewired.n == 2 && rewired.seedVertex == 2)
  }

  test("an index Java-serializes to 4 bytes an edge and an offset plus at most 1 KB") {
    val n = 2000
    val adj = Array.tabulate(n)(v => Array.tabulate(v % 9)(j => (v * 31 + j * 7) % n))
    val edges = adj.map(_.length).sum
    val index = FusedIndex(adj, seedVertex = 3, weights = Array(0.4, 0.6))
    val buf = new ByteArrayOutputStream
    val out = new ObjectOutputStream(buf)
    out.writeObject(index); out.close()
    assert(buf.size <= 4L * (edges + n + 1) + 1024, s"${buf.size} bytes for $edges edges")
    val back = new ObjectInputStream(new ByteArrayInputStream(buf.toByteArray)).readObject().asInstanceOf[FusedIndex]
    assert(nested(back.adjacency) == nested(adj))
    assert(back.seedVertex == 3 && back.weights.toSeq == Seq(0.4, 0.6))
  }
}
