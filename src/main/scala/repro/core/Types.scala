package repro.core

/** Shared configuration and row types for the MSTM reproduction.
  *
  * An object in the set S carries `m` modality vectors (target modality is
  * index 0, as in the paper). A query carries `t <= m` query vectors plus an
  * optional composition vector Φ(q⁰..qᵗ⁻¹) living in the modality-0 space
  * (paper §V, Fig. 4(f): Option 1 = independent target encoding, Option 2 =
  * composition replaces the target-slot vector).
  */
object Types {

  /** A multimodal object row: `vecs(i)` = φᵢ(oⁱ), normalized. */
  final case class MMObject(id: Long, vecs: Seq[Seq[Double]])

  /** A multimodal query row.
    *
    * @param qid   query id
    * @param gt    ground-truth object id (the object the query intends)
    * @param vecs  query vectors; slot 0 is φ₀(q⁰) (or the composition vector
    *              when the encoder config is composition-based); missing
    *              modalities (t < m) are empty arrays and get ω=0 at search
    * @param comp  Φ(q⁰..qᵗ⁻¹) in modality-0 space, empty when the encoder
    *              has no multimodal composition head
    */
  final case class MMQuery(qid: Long, gt: Long, vecs: Seq[Seq[Double]], comp: Seq[Double])

  /** Synthetic dataset analog of one paper dataset (Table II row).
    *
    * Objects are generated from clustered latent features: z_o = c_{g(o)} +
    * tau * xi_o with nClusters centers in R^dLat; modality i is a noisy
    * normalized random projection of z_o into R^dim. Clusters make wrong
    * answers *hard* (same-cluster rivals have high IP), which reproduces
    * the paper's SME scale and MR's intersection failures.
    */
  final case class DatasetConfig(
      name: String,
      n: Long,
      nQueries: Int,
      m: Int,
      dim: Int,
      dLat: Int,
      nClusters: Int,
      tau: Double,
      seed: Long,
  ) {
    require(m >= 1 && n >= 1 && nQueries >= 1 && nClusters >= 1)
  }

  /** Simulated encoder combination (one row label of Tables III–VI).
    *
    * Noise levels are the substitution for real pretrained encoders: a
    * better encoder ⇔ smaller query-side noise. `targetIsComposition`
    * distinguishes "ResNet50+LSTM" (unimodal target slot, Option 1) from
    * "CLIP+LSTM" (composition vector in the target slot, Option 2).
    *
    * @param name                row label, e.g. "ResNet50+LSTM"
    * @param targetNoise         query-side noise for φ₀(q⁰)
    * @param auxNoises           query-side noise for modalities 1..m-1
    * @param compNoise           noise of Φ(q⁰..qᵗ⁻¹); NaN ⇒ no composition head
    * @param targetIsComposition use Φ in the target slot for MR/MUST
    */
  final case class EncoderConfig(
      name: String,
      targetNoise: Double,
      auxNoises: Seq[Double],
      compNoise: Double = Double.NaN,
      targetIsComposition: Boolean = false,
  ) {
    require(!targetIsComposition || hasComposition,
      s"$name: composition target requires a composition head")
    def hasComposition: Boolean = !compNoise.isNaN
    def noiseFor(modality: Int): Double =
      if (modality == 0) { if (targetIsComposition) compNoise else targetNoise }
      else auxNoises(modality - 1)
  }

  /** Fused-index build knobs (Algorithm 1 inputs + component toggles). */
  final case class IndexConfig(
      gamma: Int = 16,           // max neighbors γ
      epsilon: Int = 3,          // NNDescent iterations ε
      useMrngSelection: Boolean = true,  // component ③; false ⇒ KGraph-style top-γ
      ensureConnectivity: Boolean = true, // component ⑤
  ) {
    require(gamma >= 1 && epsilon >= 0)
  }

  /** Search knobs (Algorithm 2 inputs). */
  final case class SearchConfig(
      k: Int = 10,
      l: Int = 40,               // result-set size l ≥ k
      usePartialDistance: Boolean = true, // Lemma 4 optimization
  ) {
    require(l >= k && k >= 1)
  }
}
