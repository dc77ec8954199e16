package repro.baseline

import org.apache.spark.sql.Dataset
import repro.core.Types._
import repro.graph.{FusedIndex, JointSearch, VectorStore}

/** Baseline 2: Joint Embedding (paper §III, Fig. 2 upper-right).
  *
  * The multimodal query is fused into a single composition vector
  * Φ(q⁰..qᵗ⁻¹) (the simulated TIRG/CLIP/MPC head of
  * [[repro.mmdata.MultiModalSynth]]) and searched against the index built
  * on the target-modality vectors {φ₀(o⁰)} alone — i.e. the modality-0
  * one-hot index shared with MR.
  */
object JointEmbeddingSearch {

  /** Single-channel search of the composition vector on the target index,
    * on the driver, as [[JointSearch.search]] runs: each query's `comp` goes
    * to slot 0 and its other `m - 1` slots are empty. Eager, so a query with
    * a missing, empty or `null` composition vector throws
    * `IllegalArgumentException` naming its qid here; no Spark job for a
    * local query Dataset and one of at most `defaultParallelism` tasks to
    * read any other; results in query order, as a local Dataset. */
  def search(
      queries: Dataset[MMQuery],
      targetIndex: FusedIndex,
      store: VectorStore,
      m: Int,
      cfg: SearchConfig,
  ): Dataset[JointSearch.SearchResult] =
    JointSearch.searchSlots(queries, targetIndex, store, MultiStreamRetrieval.oneHot(m, 0), cfg) { q =>
      require(q.comp != null && q.comp.nonEmpty,
        s"query ${q.qid} has no composition vector — JE needs a multimodal head")
      Array.tabulate(m)(i => if (i == 0) q.comp.toArray else Array.emptyDoubleArray)
    }
}
