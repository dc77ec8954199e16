package repro.mstmbench

import repro.core.Types.{DatasetConfig, EncoderConfig}
import repro.mmdata.Datasets

/** One benchmark workload. Every run sets up, then times one kind of
  * search call: single-query requests or batches of all eval queries.
  *
  * @param batch       whether a timed call is a batch of all eval queries
  *                    rather than a single-query request
  * @param masks       query modality masks, rotated over the eval queries
  * @param evalQueries size of the batch-search query Dataset; the recall
  *                    sample and the request pool are prefixes of it
  * @param recallFloor lowest `recall_at_10` the output gate accepts
  */
final case class Workload(
    name: String,
    ds: DatasetConfig,
    enc: EncoderConfig,
    batch: Boolean,
    masks: Seq[Seq[Boolean]],
    evalQueries: Int,
    recallFloor: Double,
) {

  /** Queries one call answers. */
  def queriesPerCall: Int = if (batch) evalQueries else 1

  /** Timed calls in a run of `seconds`. */
  def calls(seconds: Double): Int =
    if (batch) math.max(Workloads.MinBatches, math.round(seconds * Workloads.BatchQps / evalQueries).toInt)
    else math.max(Workloads.MinRequests, math.round(seconds * Workloads.RequestsPerSecond).toInt)

  /** Calls per warm-up round: about a second of work. */
  def warmupWindow: Int = if (batch) 1 else 12
}

object Workloads {

  /** Table VII's operating point: γ = 24 and l = 160. */
  val Gamma = 24
  val L = 160
  val K = 10
  val TrainAnchors = 200

  /** Rates on a 4-vCPU reference host that turn `--seconds` into a fixed
    * number of calls: a run times the same calls on any host. */
  val RequestsPerSecond = 12.0
  val BatchQps = 1500.0
  /** Floors for a short `--seconds`, enough for a median. */
  val MinRequests = 20
  val MinBatches = 3

  /** Warm-up stops when the drift ratio between consecutive rounds has been
    * within this of 1 for two rounds in a row, after 3 to `WarmupMaxRounds`
    * rounds (see `Run.warmUp`). */
  val WarmupTolerance = 0.1
  val WarmupMaxRounds = 4

  val names: Seq[String] = Seq("online-m2", "batch-m4-masked")

  def apply(name: String, seed: Long): Workload = name match {
    // Single-query requests: the fixed cost of each search call dominates.
    case "online-m2" =>
      Workload(name, Datasets.imageText(5000L).copy(seed = seed), Datasets.imageTextEncoder,
        batch = false, Seq(Seq(true, true)), evalQueries = 1000, recallFloor = 0.95)
    // Large batches with t < m masks: the routing kernel and Lemma-4 partial
    // distances over four modalities dominate; call overhead is amortised.
    case "batch-m4-masked" =>
      Workload(name, Datasets.celebAPlus.copy(n = 5000L, seed = seed), Datasets.celebAPlusEncoder,
        batch = true, Seq("1111", "1100", "1010", "1110").map(_.map(_ == '1')), evalQueries = 2000,
        recallFloor = 0.8)
    case other =>
      throw new IllegalArgumentException(s"unknown workload '$other'; known: ${names.mkString(", ")}")
  }
}
