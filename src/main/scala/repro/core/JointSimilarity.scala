package repro.core

/** Joint similarity in the unified (weighted-concatenated) vector space.
  *
  * Lemma 1 (paper §VI-B): for concatenated vectors â = [ω₀·φ₀(a⁰), …] and
  * b̂, IP(â, b̂) = Σᵢ ωᵢ²·IP(φᵢ(aⁱ), φᵢ(bⁱ)). We therefore parameterize all
  * weights as w = ω² (the paper's appendix tables report ω² as well) and
  * never materialize the concatenation.
  *
  * The partial-scan variant implements the multi-vector computation
  * optimization of §VII-B (Eq. 8/9, Lemma 4): scan modalities
  * incrementally and abandon an object as soon as its joint IP can no
  * longer exceed the current threshold. For normalized vectors IPᵢ ≤ 1, so
  * after scanning modalities 0..x-1 the joint IP is bounded above by
  * partial + Σ_{i≥x} wᵢ — a safe early-exit test equivalent to the paper's
  * partial-Euclidean-distance form.
  */
object JointSimilarity {

  /** Exact joint IP: Σᵢ wᵢ·IPᵢ, skipping empty (absent, t<m) query slots. */
  def jointIP(w: Array[Double], q: Array[Array[Double]], o: Array[Array[Double]]): Double = {
    require(w.length == o.length, s"weights ${w.length} vs modalities ${o.length}")
    var s = 0.0; var i = 0
    while (i < o.length) {
      if (i < q.length && q(i).length > 0 && w(i) != 0.0) s += w(i) * VecOps.dot(q(i), o(i))
      i += 1
    }
    s
  }

  /** Result of a partial-distance computation (Lemma 4). */
  final case class PartialResult(ip: Double, pruned: Boolean, modalitiesScanned: Int)

  /** Incremental joint IP with early exit against `threshold`.
    *
    * Returns `pruned = true` iff the scan stopped early, with an active
    * modality left unscanned, because the upper bound fell to/below
    * `threshold` — in that case `ip` is the bound at the stopping point and
    * the true joint IP is ≤ it (safe to discard). When `pruned = false`,
    * every active modality was scanned and `ip` is exact, whether or not it
    * beats `threshold`.
    */
  def partialJointIP(
      w: Array[Double],
      q: Array[Array[Double]],
      o: Array[Array[Double]],
      threshold: Double,
  ): PartialResult = {
    require(w.length == o.length)
    // Suffix mass Σ_{i>=x} w_i over *active* modalities bounds the unscanned part.
    var remaining = 0.0
    var active = 0
    var i = 0
    while (i < o.length) {
      if (i < q.length && q(i).length > 0 && w(i) != 0.0) { remaining += math.abs(w(i)); active += 1 }
      i += 1
    }
    var partial = 0.0
    var scanned = 0
    i = 0
    while (i < o.length) {
      if (i < q.length && q(i).length > 0 && w(i) != 0.0) {
        partial += w(i) * VecOps.dot(q(i), o(i))
        remaining -= math.abs(w(i))
        scanned += 1
        // Counted, not read off `remaining`: its floating residue is not exactly 0.
        if (scanned < active && partial + remaining <= threshold)
          return PartialResult(partial + remaining, pruned = true, scanned)
      }
      i += 1
    }
    PartialResult(partial, pruned = false, scanned)
  }

  /** Similarity measurement error (Eq. 4): 1 − IP(φ₀(a⁰), φ₀(r⁰)). */
  def sme(gtTarget: Array[Double], resultTarget: Array[Double]): Double =
    1.0 - VecOps.dot(gtTarget, resultTarget)
}
