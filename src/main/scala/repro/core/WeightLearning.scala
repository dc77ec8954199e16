package repro.core

import org.apache.spark.sql.{Dataset, Encoders}
import repro.core.Types._
import repro.graph.JointSearch

/** Vector weight learning (paper §VI).
  *
  * Learns the modality weights w = (ω₀², …, ω_{m-1}²) that define the joint
  * similarity IP(p̂, ô) = Σᵢ wᵢ·IPᵢ (Lemma 1). Training minimizes the
  * softmax contrastive loss of Eq. 6 over a Dataset of anchors (training
  * queries) whose positives are their true objects in T, with *hard*
  * negatives re-mined every epoch via vector search over T under the
  * current weights (Eq. 5).
  *
  * Execution: the anchors and T are collected once (both are as small as
  * the training set; the anchors through [[JointSearch.rows]], so a local
  * Dataset needs no query plan, and T by testing each object row's id in
  * its task and decoding only T's rows), and each anchor's per-modality IPs
  * against T are computed once — they do not depend on w. The epochs then
  * run on the driver over that anchors × |T| × m tensor, in primitive loops
  * over one reused array of joint IPs: each epoch sums the
  * per-anchor gradients in anchor order and takes one full-batch
  * gradient-descent step (the paper's minibatch SGD with 700 iterations ≈
  * our full-batch GD with ~80 epochs at the same loss).
  *
  * The closed-form gradient of Eq. 6 w.r.t. wᵢ for one anchor p is
  *   ∂L_p/∂wᵢ = −IPᵢ(p, p⁺) + Σ_{x ∈ {p⁺} ∪ N⁻} softmax(s_x)·IPᵢ(p, x),
  * with s_x = Σᵢ wᵢ·IPᵢ(p, x); verified against numeric differentiation in
  * the test suite.
  */
object WeightLearning {

  final case class WLConfig(
      epochs: Int = 80,
      lr: Double = 0.05,
      negatives: Int = 5,       // |N⁻| (paper App. G studies this knob)
      init: Double = 0.5,       // paper: random init; we use a fixed start for determinism
      hardNegatives: Boolean = true, // false ⇒ random negatives (Fig. 9 ablation)
      seed: Long = 7L,
  )

  final case class TrainResult(
      weights: Array[Double],
      lossHistory: Seq[Double],
      top1History: Seq[Double], // fraction of anchors whose positive ranks first in T
  )

  /** One anchor's per-modality IPs against T: `ips(j)(i)` = IPᵢ(p, T(j)),
    * with `pos` the index of the anchor's positive in T. */
  private[core] final case class AnchorIps(qid: Long, pos: Int, ips: Array[Array[Double]])

  /** Computes an anchor's [[AnchorIps]]; rejects an anchor whose gt is not in T. */
  private[core] def anchorIps(
      anchor: MMQuery,
      t: Array[(Long, Array[Array[Double]])],
      m: Int,
  ): AnchorIps = {
    val pos = t.indexWhere(_._1 == anchor.gt)
    require(pos >= 0, s"anchor gt ${anchor.gt} missing from T")
    val qv = anchor.vecs.map(_.toArray).toArray
    val ips = t.map { case (_, ov) =>
      Array.tabulate(m)(i =>
        if (i < qv.length && qv(i).length > 0) VecOps.dot(qv(i), ov(i)) else 0.0)
    }
    AnchorIps(anchor.qid, pos, ips)
  }

  /** One anchor's contribution under weights w: (gradient over m weights,
    * loss, top1 hit). Package-visible so the test suite can check the
    * closed-form gradient against numeric differentiation. */
  private[core] def anchorGrad(
      w: Array[Double],
      anchor: AnchorIps,
      cfg: WLConfig,
  ): (Array[Double], Double, Double) = anchorGrad(w, anchor, cfg, new Array[Double](anchor.ips.length))

  /** [[anchorGrad]] with `joint`, scratch of at least |T| entries that the
    * caller reuses across anchors, for the anchor's joint IPs. */
  private[core] def anchorGrad(
      w: Array[Double],
      anchor: AnchorIps,
      cfg: WLConfig,
      joint: Array[Double],
  ): (Array[Double], Double, Double) = {
    val m = w.length
    val ips = anchor.ips
    val nT = ips.length
    val posIdx = anchor.pos
    var t = 0
    while (t < nT) {
      val ip = ips(t)
      var s = 0.0; var i = 0; while (i < m) { s += w(i) * ip(i); i += 1 }
      joint(t) = s
      t += 1
    }

    // Eq. 5: R = top-k of T under current weights (k = |N⁻| + 1 so that
    // N⁻ = R \ {p⁺} has |N⁻| elements when the positive is in R).
    val nNeg = math.min(cfg.negatives, nT - 1)
    val negIdxs: Array[Int] =
      if (cfg.hardNegatives) topIndexes(joint, nT, nNeg + 1).filter(_ != posIdx).take(nNeg)
      else {
        val rng = new scala.util.Random(VecOps.mix64(cfg.seed ^ anchor.qid))
        Iterator.continually(rng.nextInt(nT))
          .filter(_ != posIdx).distinct.take(nNeg).toArray
      }

    // The first index of the highest joint IP, by Double.compare.
    var best = 0
    t = 1
    while (t < nT) { if (java.lang.Double.compare(joint(t), joint(best)) > 0) best = t; t += 1 }
    val top1 = if (best == posIdx) 1.0 else 0.0

    // Softmax over {positive} ∪ negatives (stable via max-shift).
    val nIdx = negIdxs.length + 1
    val idxs = new Array[Int](nIdx)
    idxs(0) = posIdx
    System.arraycopy(negIdxs, 0, idxs, 1, negIdxs.length)
    var mx = joint(posIdx)
    var j = 1
    while (j < nIdx) { if (java.lang.Double.compare(joint(idxs(j)), mx) > 0) mx = joint(idxs(j)); j += 1 }
    val es = new Array[Double](nIdx)
    var z = 0.0
    j = 0
    while (j < nIdx) { es(j) = math.exp(joint(idxs(j)) - mx); z += es(j); j += 1 }
    val loss = -math.log(es(0) / z)
    val grad = new Array[Double](m)
    var i = 0
    while (i < m) {
      var g = -ips(posIdx)(i)
      j = 0
      while (j < nIdx) { g += (es(j) / z) * ips(idxs(j))(i); j += 1 }
      grad(i) = g
      i += 1
    }
    (grad, loss, top1)
  }

  /** The indexes of the `k` highest of `joint(0 until n)`, best first: by
    * `Double.compare` on −joint, then by index, the order a stable sort by
    * −joint gives. One pass that inserts into a sorted array of k. */
  private def topIndexes(joint: Array[Double], n: Int, k: Int): Array[Int] = {
    val kept = new Array[Int](math.max(0, math.min(k, n)))
    var size = 0
    var t = 0
    while (t < n) {
      val key = -joint(t)
      // An equal key ranks below every kept entry: indexes arrive ascending.
      if (size < kept.length || (size > 0 && java.lang.Double.compare(key, -joint(kept(size - 1))) < 0)) {
        var at = math.min(size, kept.length - 1)
        while (at > 0 && java.lang.Double.compare(key, -joint(kept(at - 1))) < 0) { kept(at) = kept(at - 1); at -= 1 }
        kept(at) = t
        if (size < kept.length) size += 1
      }
      t += 1
    }
    kept
  }

  /** Runs the learning loop; `anchors` is the training-query Dataset and
    * `objects` supplies T = the anchors' true objects. Rejects an anchor
    * with more slots than `m` or with no non-empty slot, and an object of T
    * with other than `m` modalities; fails when the steps clamp every
    * weight to 0, which leaves no joint similarity to build an index on. */
  def learn(
      anchors: Dataset[MMQuery],
      objects: Dataset[MMObject],
      m: Int,
      cfg: WLConfig = WLConfig(),
  ): TrainResult = {
    val anchorRows = JointSearch.rows(anchors)
    val nAnchors = anchorRows.length.toDouble
    require(nAnchors > 0, "no training anchors")
    anchorRows.foreach { a =>
      require(a.vecs.length <= m, s"anchor ${a.qid}: ${a.vecs.length} slots for $m modalities")
      require(a.vecs.exists(_.nonEmpty), s"anchor ${a.qid} has no non-empty slot")
    }

    // T: true objects of the anchors (paper §VI-A).
    val gtIds = anchorRows.map(_.gt).toSet
    val t = trueObjects(objects, gtIds).sortBy(_._1)
    require(t.length == gtIds.size, "some anchor gts missing from object set")
    t.foreach { case (id, ov) => require(ov.length == m, s"object $id: ${ov.length} modalities, m = $m") }
    val tensor = anchorRows.map(a => anchorIps(a, t, m))

    var w = Array.fill(m)(cfg.init)
    val losses = Vector.newBuilder[Double]
    val top1s = Vector.newBuilder[Double]

    val joint = new Array[Double](t.length)
    for (_ <- 0 until cfg.epochs) {
      val gradSum = new Array[Double](m)
      var lossSum = 0.0
      var hitSum = 0.0
      tensor.foreach { a =>
        val (g, l, h) = anchorGrad(w, a, cfg, joint)
        var i = 0
        while (i < m) { gradSum(i) += g(i); i += 1 }
        lossSum += l
        hitSum += h
      }
      losses += lossSum / nAnchors
      top1s += hitSum / nAnchors
      w = Array.tabulate(m)(i => math.max(0.0, w(i) - cfg.lr * gradSum(i) / nAnchors))
    }
    require(w.exists(_ > 0.0), s"weight learning clamped every weight to 0 (max(0, ·) after each step, " +
      s"lr ${cfg.lr}, ${cfg.epochs} epochs): no modality ranks the anchors' true objects above their negatives")
    TrainResult(w, losses.result(), top1s.result())
  }

  private lazy val objectSchema = Encoders.product[MMObject].schema

  /** The objects of `objects` whose id is in `ids`, as (id, vectors). In
    * `MMObject`'s schema, by one job over the encoded rows that tests each
    * row's id in its task and decodes only the rows kept
    * ([[JointSearch.encodedRows]]); in any other schema, by `collect()`. */
  private def trueObjects(objects: Dataset[MMObject], ids: Set[Long]): Array[(Long, Array[Array[Double]])] =
    if (objects.schema == objectSchema)
      JointSearch.encodedRows(objects)(row => ids.contains(row.getLong(0)), { row =>
        val vecs = row.getArray(1)
        row.getLong(0) -> Array.tabulate(vecs.numElements())(j => vecs.getArray(j).toDoubleArray())
      })
    else objects.collect().filter(o => ids.contains(o.id)).map(o => o.id -> o.vecs.map(_.toArray).toArray)
}
