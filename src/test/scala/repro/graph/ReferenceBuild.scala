package repro.graph

import scala.collection.mutable

import repro.core.JointSimilarity

/** The candidate step of `FusedIndexBuilder` as it stood before it deduped
  * with visited tags and sorted primitive arrays: a boxed `distinct` and a
  * `sorted` of (−ip, id) tuples. Kept verbatim as the reference that
  * `FusedIndexBuilderSpec` compares the new code with, bit by bit.
  */
object ReferenceBuild {

  def candidates(
      store: VectorStore,
      w: Array[Double],
      nbrs: Array[Array[Int]],
      v: Int,
      keep: Int,
  ): (Array[Int], Array[Double]) = {
    val all = mutable.ArrayBuilder.make[Int]
    nbrs(v).foreach { u => all += u; all ++= nbrs(u) }
    val us = all.result().distinct.filter(_ != v)
    val vv = store(v)
    val top = us.map(u => (-JointSimilarity.jointIP(w, vv, store(u)), u)).sorted.take(keep)
    (top.map(_._2), top.map(-_._1))
  }
}
