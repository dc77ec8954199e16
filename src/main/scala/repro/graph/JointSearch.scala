package repro.graph

import scala.reflect.ClassTag
import org.apache.spark.sql.{Dataset, Encoder, Encoders}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import org.apache.spark.sql.catalyst.plans.logical.LocalRelation
import org.apache.spark.sql.catalyst.util.ArrayData
import repro.core.{JointSimilarity, VecOps}
import repro.core.Types._

/** Merging-free joint search on the fused index (paper §VII-B, Algorithm 2)
  * plus the multi-vector computation optimization (Eq. 8/9, Lemma 4).
  *
  * Search runs in process, as the paper's single-node kernel does: the
  * driver already holds the index and the vector store, so it reads the
  * query rows and runs the greedy routing kernel per query on its own
  * cores — the "index-pruned scan" formulation of the search: instead of
  * scanning all n objects, each query touches only the vertices the graph
  * routes it through.
  */
object JointSearch {

  /** Per-query output. `results` is the approximate top-k (desc joint IP).
    *
    * @param dotProducts   modality-level dot products actually computed
    * @param prunedObjects objects discarded by the Lemma-4 bound before all
    *                      their active modalities were scanned
    * @param hops          greedy iterations (vertices expanded)
    */
  final case class SearchResult(
      qid: Long,
      gt: Long,
      results: Seq[Long],
      dotProducts: Long,
      prunedObjects: Long,
      hops: Long,
  )

  /** Greedy routing kernel (Algorithm 2). Pure function; [[search]] runs it
    * once per query, on the common fork-join pool.
    *
    * R, the fixed-size (l) result set, is three parallel arrays sorted by
    * joint IP descending, then by id; `cursor` is its first unexpanded entry.
    * Every vertex scored so far is marked in the thread's [[VisitedTags]], so
    * none is scored twice (the paper's H-check plus memoization — identical
    * result set, fewer dot products). Neighbours are scored against R's worst
    * IP with the Lemma-4 partial distance, or exactly when that is off,
    * through one [[JointSimilarity.PartialScan]] per query, which reads each
    * vertex's vectors by offset into the store's flat array; each expanded
    * vertex's out-neighbours are read by offset from the index's one array.
    * The query is validated here, once.
    *
    * @return (top-k ids, dot products, pruned count, hops, per-iteration
    *         sum of R's IPs — the monotone f(η) of Lemma 3)
    */
  def searchKernel(
      qVecs: Array[Array[Double]],
      qid: Long,
      w: Array[Double],
      index: FusedIndex,
      store: VectorStore,
      cfg: SearchConfig,
      seed: Long = 99L,
  ): (Array[Int], Long, Long, Long, Array[Double]) = {
    validateQuery(qVecs, qid, w, store)
    val fEta = scala.collection.mutable.ArrayBuilder.make[Double]
    val (ids, dots, pruned, hops) = route(qVecs, qid, w, index, store, cfg, seed, fEta)
    (ids, dots, pruned, hops, fEta.result())
  }

  /** The scratch marks of [[route]], one set per thread. */
  private val scoredTags = ThreadLocal.withInitial[VisitedTags](() => new VisitedTags)

  /** [[searchKernel]]'s routing. It appends R's IP sum to `fEta` after
    * seeding and after each hop only when `fEta` is given: [[search]] and
    * MR's merge pass none, since that O(l) sum per hop is a sizeable share
    * of a warm kernel's time. It does not validate the query: each caller
    * has ([[searchKernel]], [[searchSlots]]' check and MR's check).
    *
    * @return (top-k ids, dot products, pruned count, hops)
    */
  private[repro] def route(
      qVecs: Array[Array[Double]],
      qid: Long,
      w: Array[Double],
      index: FusedIndex,
      store: VectorStore,
      cfg: SearchConfig,
      seed: Long = 99L,
      fEta: scala.collection.mutable.ArrayBuilder[Double] = null,
  ): (Array[Int], Long, Long, Long) = {
    val n = index.n
    val (offsets, targets) = (index.offsets, index.targets)
    val l = math.min(cfg.l, n)
    var dots = 0L; var prunedCnt = 0L; var hops = 0L
    val (ids, ips, expanded) = (new Array[Int](l), new Array[Double](l), new Array[Boolean](l))
    var size = 0; var cursor = 0
    val seen = scoredTags.get()
    seen.reset(n)

    val scan = new JointSimilarity.PartialScan(w, qVecs, store.data, store.offsets)
    def score(v: Int, threshold: Double): Double = {
      seen.mark(v)
      val ip = scan(v, threshold)
      dots += scan.scanned
      ip
    }
    // Puts (ip, v) after each entry of higher IP (by Double.compare), or equal IP and lower id.
    def insert(ip: Double, v: Int): Unit = {
      var lo = 0; var hi = size
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        val c = java.lang.Double.compare(ips(mid), ip)
        if (c > 0 || (c == 0 && ids(mid) < v)) lo = mid + 1 else hi = mid
      }
      System.arraycopy(ids, lo, ids, lo + 1, size - lo)
      System.arraycopy(ips, lo, ips, lo + 1, size - lo)
      System.arraycopy(expanded, lo, expanded, lo + 1, size - lo)
      ids(lo) = v; ips(lo) = ip; expanded(lo) = false
      size += 1
      if (lo < cursor) cursor = lo
    }
    def add(v: Int): Unit = if (!seen.isMarked(v)) insert(score(v, Double.NegativeInfinity), v)
    def trace(): Unit = if (fEta != null) {
      var s = 0.0; var i = 0; while (i < size) { s += ips(i); i += 1 }; fEta += s
    }

    // Line 1–3: seed + (l−1) random vertices, scored exactly.
    add(index.seedVertex)
    var c = 0L
    while (size < l) {
      add(math.floorMod(VecOps.mix64(seed ^ VecOps.mix64(qid * 131 + c)), n.toLong).toInt)
      c += 1
    }

    trace()
    while (cursor < size) {
      // Line 5: the unexpanded vertex in R nearest to q.
      expanded(cursor) = true; hops += 1
      val v = ids(cursor)
      var i = offsets(v)
      val end = offsets(v + 1)
      while (i < end) {
        val u = targets(i)
        if (!seen.isMarked(u)) {
          val worst = ips(size - 1) // line 8: z = argmin IP in R
          val ip = score(u, if (cfg.usePartialDistance) worst else Double.NegativeInfinity)
          if (scan.pruned) prunedCnt += 1
          else if (ip > worst) { size -= 1; insert(ip, u) }
        }
        i += 1
      }
      while (cursor < size && expanded(cursor)) cursor += 1
      trace()
    }
    (ids.take(cfg.k), dots, prunedCnt, hops)
  }

  /** Rejects, naming the qid, a query with more weights or slots than the store has modalities, a
    * slot of another dimension than the store's, a NaN or infinite component, or no slot both
    * non-empty and weighted. */
  private[repro] def validateQuery(q: Array[Array[Double]], qid: Long, w: Array[Double], store: VectorStore): Unit = {
    require(w.length == store.m, s"query $qid: ${w.length} weights for ${store.m} modalities")
    require(q.length <= store.m, s"query $qid: ${q.length} slots for ${store.m} modalities")
    for (i <- q.indices if q(i).nonEmpty) require(q(i).length == store.dim(i),
      s"query $qid: slot $i has dimension ${q(i).length}, the store's ${store.dim(i)}")
    for (i <- q.indices) require(allFinite(q(i)), s"query $qid: slot $i has a NaN or infinite component")
    require(q.indices.exists(i => q(i).nonEmpty && w(i) != 0.0),
      s"query $qid has no slot that is both non-empty and weighted")
  }

  private def allFinite(x: Array[Double]): Boolean = {
    var j = 0
    while (j < x.length && java.lang.Double.isFinite(x(j))) j += 1
    j == x.length
  }

  /** Derived once: given a product encoder, `createDataset` would derive its
    * serializer and deserializer expressions again on every call. */
  private lazy val resultEncoder: Encoder[SearchResult] = ExpressionEncoder[SearchResult]()

  /** Joint search of every query in `queries`, each scored alone by
    * [[searchKernel]] with its default seed (without f(η)), on the driver.
    *
    * Eager: the queries are read and searched before this returns, so a
    * query that fails validation throws `IllegalArgumentException` naming
    * its qid here, not at a later action. A local query Dataset
    * (`createDataset` over a Seq) is read without a Spark job or a query
    * plan; any other Dataset in `MMQuery`'s schema by one Spark job of at
    * most `defaultParallelism` tasks (see [[rows]]).
    * The results are in the order `queries.collect()` returns, as a local
    * Dataset whose actions start no job either.
    */
  def search(
      queries: Dataset[MMQuery],
      index: FusedIndex,
      store: VectorStore,
      w: Array[Double],
      cfg: SearchConfig = SearchConfig(),
  ): Dataset[SearchResult] = searchSlots(queries, index, store, w, cfg)(_.vecs.map(_.toArray).toArray)

  /** [[search]] with each query's vectors made by `slots`. `slots` runs on
    * the calling thread before validation, so a query it rejects throws
    * inside this call too. */
  private[repro] def searchSlots(
      queries: Dataset[MMQuery],
      index: FusedIndex,
      store: VectorStore,
      w: Array[Double],
      cfg: SearchConfig,
  )(slots: MMQuery => Array[Array[Double]]): Dataset[SearchResult] =
    inProcess(queries, resultEncoder) { q =>
      val qv = slots(q)
      validateQuery(qv, q.qid, w, store)
      (q, qv)
    } { case (q, qv) =>
      val (ids, dots, pruned, hops) = route(qv, q.qid, w, index, store, cfg)
      SearchResult(q.qid, q.gt, ids.map(_.toLong).toSeq, dots, pruned, hops)
    }

  /** The driver-side runner of joint, MR and JE search. Reads the [[rows]]
    * of `queries` (a local Dataset without a job, any other by one job of at
    * most `defaultParallelism` tasks) and runs `check` on each on the calling
    * thread, so that a rejection keeps its own type and message; then runs
    * `score` on the driver's cores ([[VectorStore.parallelMap]]) and returns
    * the results in query order as a local Dataset encoded by `enc`. */
  private[repro] def inProcess[A: ClassTag, R: ClassTag](queries: Dataset[MMQuery], enc: Encoder[R])(
      check: MMQuery => A)(score: A => R): Dataset[R] = {
    val checked = rows(queries).map(check)
    val out = VectorStore.parallelMap(checked.length)(i => score(checked(i)))
    queries.sparkSession.createDataset(out.toSeq)(enc)
  }

  private lazy val querySchema = Encoders.product[MMQuery].schema

  /** The rows of `queries`, in the order `collect()` returns them.
    *
    * A Dataset made by `createDataset` over a Seq is a `LocalRelation` of
    * encoded rows, which are decoded here directly: `collect()` would
    * analyse, optimise and plan the query and generate a decoder on every
    * call, several times the kernel's cost for one query.
    *
    * Any other Dataset in `MMQuery`'s schema is read by one Spark job of at
    * most `defaultParallelism` tasks (after the jobs of any shuffle in its
    * plan, which `collect()` runs too): each partition of its encoded rows
    * is decoded in its task and tagged with its index, and the partitions
    * are put back in index order on the driver. `collect()` would run one
    * task per partition, and Spark's fixed cost per task, not the rows,
    * dominates such a read (a cached 32-partition Dataset of 2000 queries).
    * The tags are needed because `coalesce` may group partitions that are
    * not adjacent. A Dataset in any other schema, such as a DataFrame with
    * its columns reordered `.as[MMQuery]`, is collected. */
  private[repro] def rows(queries: Dataset[MMQuery]): Array[MMQuery] = queries.queryExecution.logical match {
    case r: LocalRelation if r.schema == querySchema => r.data.iterator.map(decodeQuery).toArray
    case _ if queries.schema == querySchema => encodedRows(queries)(_ => true, decodeQuery)
    case _ => queries.collect()
  }

  /** `decode` of each encoded row of `ds` that `keep` accepts, in the order
    * `collect()` returns the rows, by one Spark job of at most
    * `defaultParallelism` tasks: each partition's rows are tested and decoded
    * in its task and tagged with its index, and the partitions are put back
    * in index order on the driver (see [[rows]]). A row that `keep` rejects
    * is never decoded. */
  private[repro] def encodedRows[A: ClassTag](ds: Dataset[_])(keep: InternalRow => Boolean, decode: InternalRow => A): Array[A] =
    ds.queryExecution.toRdd
      .mapPartitionsWithIndex((p, it) => Iterator(p -> it.filter(keep).map(decode).toArray))
      .coalesce(ds.sparkSession.sparkContext.defaultParallelism)
      .collect().sortBy(_._1).flatMap(_._2)

  /** An [[MMQuery]] from a row in `querySchema`, nulls kept as `collect()` keeps them. */
  private def decodeQuery(row: InternalRow): MMQuery = {
    def doubles(a: ArrayData): Seq[Double] = if (a == null) null else a.toDoubleArray().toSeq
    val vecs = row.getArray(2)
    MMQuery(row.getLong(0), row.getLong(1),
      if (vecs == null) null else Seq.tabulate(vecs.numElements())(j => doubles(vecs.getArray(j))),
      doubles(row.getArray(3)))
  }
}
