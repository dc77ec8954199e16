package repro.core

/** Dense vector primitives shared by every subsystem.
  *
  * All similarity math in the paper is inner product over L2-normalized
  * vectors (§III, Eq. 2). Vectors are plain `Array[Double]` — they live
  * inside DataFrame rows as `ARRAY<DOUBLE>` and inside the driver-side
  * kernels as primitive arrays, so no Breeze/MLlib dependency is needed.
  *
  * Also hosts the deterministic counter-based RNG (SplitMix64 + Box-Muller)
  * used by [[repro.mmdata.MultiModalSynth]] so that every vector is a pure
  * function of (seed, tag, id, …) — executors regenerate identical data
  * with no shuffling of randomness through closures.
  */
object VecOps {

  /** Inner product of two equal-length vectors. */
  def dot(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, s"dim mismatch: ${a.length} vs ${b.length}")
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  def norm(a: Array[Double]): Double = math.sqrt(dot(a, a))

  /** Returns a fresh L2-normalized copy; the zero vector is returned as-is. */
  def normalize(a: Array[Double]): Array[Double] = {
    val n = norm(a)
    if (n == 0.0) a.clone() else a.map(_ / n)
  }

  /** a + s*b, fresh array. */
  def axpy(a: Array[Double], s: Double, b: Array[Double]): Array[Double] = {
    require(a.length == b.length)
    val out = new Array[Double](a.length)
    var i = 0
    while (i < a.length) { out(i) = a(i) + s * b(i); i += 1 }
    out
  }

  // ----- deterministic counter-based randomness ------------------------

  /** SplitMix64 finalizer: a high-quality 64-bit mix of the input. */
  def mix64(x0: Long): Long = {
    var x = x0 + 0x9E3779B97F4A7C15L
    x = (x ^ (x >>> 30)) * 0xBF58476D1CE4E5B9L
    x = (x ^ (x >>> 27)) * 0x94D049BB133111EBL
    x ^ (x >>> 31)
  }

  /** Uniform in (0, 1), never exactly 0 (safe for log). */
  def unit(x: Long): Double = {
    val u = (mix64(x) >>> 11).toDouble / (1L << 53).toDouble
    if (u <= 0.0) java.lang.Double.MIN_NORMAL else u
  }

  /** Standard normal draw, pure function of the key. */
  def gaussian(key: Long): Double = {
    val u1 = unit(key)
    val u2 = unit(mix64(key) ^ 0x5DEECE66DL)
    math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.Pi * u2)
  }

  /** Deterministic Gaussian vector for a structured key. */
  def gaussianVec(seed: Long, tag: Long, row: Long, dim: Int): Array[Double] = {
    val base = mix64(seed) ^ mix64(tag * 0x9E3779B97F4A7C15L + 0x1234567L) ^ mix64(row + 0x55AA55AAL)
    Array.tabulate(dim)(j => gaussian(mix64(base + j * 0x632BE59BD9B4E019L)))
  }
}
