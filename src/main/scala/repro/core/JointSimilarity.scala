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
  *
  * [[jointIP]] and [[partialJointIP]] read nested per-modality arrays. The
  * kernels read a [[repro.graph.VectorStore]]'s one flat array by offset
  * instead — search, the exact scans (`VectorStore.topK`) and the build's
  * seed through [[PartialScan]], the build's pair IPs through
  * `VectorStore.pairIP` — and sum in the same order, so each IP has the
  * same bits as here.
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
    val scan = new PartialScan(w, q, o.flatten, o.map(_.length).scanLeft(0)(_ + _))
    val ip = scan(0, threshold)
    PartialResult(ip, scan.pruned, scan.scanned)
  }

  /** [[partialJointIP]] of many objects against one query `q`, the objects'
    * vectors read by offset from one flat array laid out as a
    * [[repro.graph.VectorStore]]'s: object v's modality i at
    * `v * offsets(m) + offsets(i)`. The active modalities (non-empty in `q`,
    * non-zero in `w`), their offsets and the bound's suffix masses are taken
    * once, and a scan returns a bare `Double`, reporting how it ended in
    * [[pruned]] and [[scanned]]. Search scores every vertex it visits
    * through one. Not thread-safe. */
  final class PartialScan(w: Array[Double], q: Array[Array[Double]], data: Array[Double], offsets: Array[Int]) {

    require(w.length == offsets.length - 1, s"weights ${w.length} vs modalities ${offsets.length - 1}")
    private val stride = offsets(offsets.length - 1)
    private val active = (0 until math.min(q.length, w.length)).filter(i => q(i).length > 0 && w(i) != 0.0).toArray
    active.foreach { i =>
      val dim = offsets(i + 1) - offsets(i)
      require(q(i).length == dim, s"dim mismatch: ${q(i).length} vs $dim")
    }
    private val qs = active.map(q)
    private val ws = active.map(w)
    private val offs = active.map(offsets)
    // rest(j): Σ|wᵢ| over the active modalities after the j-th, each |wᵢ|
    // subtracted in turn from the total, so every bound has the same bits.
    private val rest = {
      var remaining = 0.0
      ws.foreach(x => remaining += math.abs(x))
      ws.map { x => remaining -= math.abs(x); remaining }
    }

    /** The last scan stopped early, with an active modality left unscanned. */
    var pruned = false
    /** The active modalities the last scan computed a dot product for. */
    var scanned = 0

    /** Object `v`'s exact joint IP, or, when [[pruned]], the upper bound at
      * which the scan fell to/below `threshold`. */
    def apply(v: Int, threshold: Double): Double = {
      val base = v * stride
      var partial = 0.0
      var j = 0
      while (j < qs.length) {
        partial += ws(j) * VecOps.dot(qs(j), data, base + offs(j))
        j += 1
        // Counted, not read off rest: its floating residue is not exactly 0.
        if (j < qs.length && partial + rest(j - 1) <= threshold) {
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
