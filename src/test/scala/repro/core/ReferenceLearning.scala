package repro.core

import repro.core.WeightLearning.{AnchorIps, WLConfig}

/** One anchor's gradient as `WeightLearning.anchorGrad` computed it before it
  * mined hard negatives in a primitive top-k pass: a stable `sortBy` of boxed
  * (joint IP, index) pairs and a `maxBy` over them. Kept verbatim as the
  * reference that `WeightLearningSpec` compares the new code with, bit by bit.
  */
object ReferenceLearning {

  def anchorGrad(
      w: Array[Double],
      anchor: AnchorIps,
      cfg: WLConfig,
  ): (Array[Double], Double, Double) = {
    val m = w.length
    val ips = anchor.ips
    val posIdx = anchor.pos
    val joint = ips.map(ip => { var s = 0.0; var i = 0; while (i < m) { s += w(i) * ip(i); i += 1 }; s })

    // Eq. 5: R = top-k of T under current weights (k = |N⁻| + 1 so that
    // N⁻ = R \ {p⁺} has |N⁻| elements when the positive is in R).
    val nNeg = math.min(cfg.negatives, ips.length - 1)
    val negIdxs: Array[Int] =
      if (cfg.hardNegatives) {
        val order = joint.zipWithIndex.sortBy(-_._1).map(_._2)
        order.take(nNeg + 1).filter(_ != posIdx).take(nNeg)
      } else {
        val rng = new scala.util.Random(VecOps.mix64(cfg.seed ^ anchor.qid))
        Iterator.continually(rng.nextInt(ips.length))
          .filter(_ != posIdx).distinct.take(nNeg).toArray
      }

    val top1 = if (joint.zipWithIndex.maxBy(_._1)._2 == posIdx) 1.0 else 0.0

    // Softmax over {positive} ∪ negatives (stable via max-shift).
    val idxs = posIdx +: negIdxs
    val ss = idxs.map(joint)
    val mx = ss.max
    val es = ss.map(s => math.exp(s - mx))
    val z = es.sum
    val loss = -math.log(es(0) / z)
    val grad = new Array[Double](m)
    var i = 0
    while (i < m) {
      var g = -ips(posIdx)(i)
      var j = 0
      while (j < idxs.length) { g += (es(j) / z) * ips(idxs(j))(i); j += 1 }
      grad(i) = g
      i += 1
    }
    (grad, loss, top1)
  }
}
