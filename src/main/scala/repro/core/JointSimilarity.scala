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
    val scan = new PartialScan(w, q)
    val ip = scan(o, threshold)
    PartialResult(ip, scan.pruned, scan.scanned)
  }

  /** [[partialJointIP]] of many objects against one query `q`: the active
    * modalities (non-empty in `q`, non-zero in `w`) and the bound's suffix
    * masses are taken once, and a scan returns a bare `Double`, reporting
    * how it ended in [[pruned]] and [[scanned]]. Search scores every vertex
    * it visits through one. Not thread-safe. */
  final class PartialScan(w: Array[Double], q: Array[Array[Double]]) {
    private val active = (0 until math.min(q.length, w.length)).filter(i => q(i).length > 0 && w(i) != 0.0).toArray
    // rest(j): Σ|wᵢ| over the active modalities after the j-th, each |wᵢ|
    // subtracted in turn from the total, so every bound has the same bits.
    private val rest = {
      var remaining = 0.0
      active.foreach(i => remaining += math.abs(w(i)))
      active.map { i => remaining -= math.abs(w(i)); remaining }
    }

    /** The last scan stopped early, with an active modality left unscanned. */
    var pruned = false
    /** The active modalities the last scan computed a dot product for. */
    var scanned = 0

    /** `o`'s exact joint IP, or, when [[pruned]], the upper bound at which
      * the scan fell to/below `threshold`. */
    def apply(o: Array[Array[Double]], threshold: Double): Double = {
      var partial = 0.0
      var j = 0
      while (j < active.length) {
        val i = active(j)
        partial += w(i) * VecOps.dot(q(i), o(i))
        j += 1
        // Counted, not read off rest: its floating residue is not exactly 0.
        if (j < active.length && partial + rest(j - 1) <= threshold) {
          pruned = true; scanned = j
          return partial + rest(j - 1)
        }
      }
      pruned = false; scanned = j
      partial
    }
  }

  /** Similarity measurement error (Eq. 4): 1 − IP(φ₀(a⁰), φ₀(r⁰)). */
  def sme(gtTarget: Array[Double], resultTarget: Array[Double]): Double =
    1.0 - VecOps.dot(gtTarget, resultTarget)
}
