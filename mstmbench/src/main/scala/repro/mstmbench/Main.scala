package repro.mstmbench

import java.io.{ObjectOutputStream, OutputStream}
import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.{MstmBenchAccess, SparkContext}
import org.apache.spark.sql.{Dataset, SparkSession}
import org.json4s._
import org.json4s.jackson.JsonMethods.{compact, render}

import repro.baseline.BruteForceSearch
import repro.core.Types._
import repro.core.WeightLearning
import repro.eval.Metrics
import repro.graph.{FusedIndexBuilder, JointSearch, VectorStore}
import repro.mmdata.MultiModalSynth

/** The MSTM benchmark driver.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  * Main --self-test
  * Main --archive-pass <dir>
  * }}}
  *
  * One run builds the inputs from the seed, sets the index up once (weight
  * learning + fused-index build, cold, in a fresh JVM), warms up, then times
  * the workload's kind of search call — single-query requests (closed
  * loop, one client) or batches over a cached query Dataset — and checks
  * every output.
  * `--archive-pass` only starts Spark and makes the inputs, for the
  * runner's class-data archive. The last line of standard output is
  * one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
  * end-to-end metrics with `--trace 0`, the per-layer metrics with
  * `--trace 1`. The exit code is 0 only when every check passed.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, out: Path)

  def main(argv: Array[String]): Unit = {
    val broken = Gate.selfTest()
    if (broken.nonEmpty) {
      System.err.println(s"gate self-test: corruptions not rejected: ${broken.mkString(", ")}")
      sys.exit(3)
    }
    if (argv.sameElements(Array("--self-test"))) {
      println("gate self-test passed: every seeded corruption was rejected")
      sys.exit(0)
    }
    if (argv.length == 2 && argv(0) == "--archive-pass") {
      new Run(Args(Workloads.names.head, seed = 0L, seconds = 1.0, trace = false, Paths.get(argv(1)))).inputsOnly()
      sys.exit(0)
    }
    val args = parse(argv)
    val code =
      try new Run(args).execute()
      catch {
        case e: Throwable =>
          e.printStackTrace()
          3
      }
    sys.exit(code)
  }

  private def parse(argv: Array[String]): Args = {
    def usage(msg: String): Nothing = {
      System.err.println(s"$msg\nusage: --workload <${Workloads.names.mkString("|")}> " +
        "--seed <n> --seconds <s> --trace <0|1> --out <dir>")
      sys.exit(2)
    }
    if (argv.length % 2 != 0) usage("arguments come in --flag value pairs")
    val kv = argv.grouped(2).map(a => a(0) -> a(1)).toMap
    val unknown = kv.keySet -- Set("--workload", "--seed", "--seconds", "--trace", "--out")
    if (unknown.nonEmpty) usage(s"unknown flags ${unknown.mkString(" ")}")
    def need(f: String) = kv.getOrElse(f, usage(s"missing $f"))
    val workload = need("--workload")
    if (!Workloads.names.contains(workload)) usage(s"unknown workload $workload")
    val trace = need("--trace") match {
      case "0" => false
      case "1" => true
      case t   => usage(s"--trace must be 0 or 1, not $t")
    }
    val seed = need("--seed").toLongOption.getOrElse(usage("--seed must be an integer"))
    val seconds = need("--seconds").toDoubleOption.filter(_ > 0).getOrElse(usage("--seconds must be > 0"))
    Args(workload, seed, seconds, trace, Paths.get(need("--out")))
  }

  /** Bytes Java serialization writes for `o`: what a broadcast ships. */
  def serializedMb(o: AnyRef): Double = {
    var bytes = 0L
    val counter = new OutputStream {
      override def write(b: Int): Unit = bytes += 1
      override def write(b: Array[Byte], off: Int, len: Int): Unit = bytes += len
    }
    val out = new ObjectOutputStream(counter)
    out.writeObject(o)
    out.close()
    bytes / 1e6
  }

  /** The Spark session of every run: the test suite's settings, except
    * for two shuffle partitions a core instead of 64 (see METRICS.md), with
    * Spark's scratch space under `out`. */
  def session(out: Path, cores: Int): SparkSession = {
    Files.createDirectories(out)
    SparkSession.builder()
      .master(s"local[$cores]")
      .appName("mstmbench")
      .config("spark.sql.shuffle.partitions", 2L * cores)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", out.resolve("spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", out.resolve("spark-warehouse").toAbsolutePath.toString)
      .getOrCreate()
  }
}

/** One benchmark run. */
final class Run(args: Main.Args) {
  import Main.serializedMb
  import Metrics.timed

  private val wl = Workloads(args.workload, args.seed)
  private val ds = wl.ds
  private val n = ds.n.toInt
  private val cores = Runtime.getRuntime.availableProcessors
  /** Many small query partitions, so a core the host slows for a while
    * takes fewer of them instead of holding up the batch. */
  private val queryPartitions = 8 * cores
  private val searchCfg = SearchConfig(k = Workloads.K, l = Workloads.L)
  private val indexCfg = IndexConfig(gamma = Workloads.Gamma)
  private val fullMask = Seq.fill(ds.m)(true)

  /** Online requests cycle through this many eval queries; each one is also
    * replayed through `searchKernel` on the driver. */
  private val replayPool = 64
  /** Queries whose exact top-k comes from `BruteForceSearch.topK`. */
  private val recallSample = 500
  /** Queries whose brute-force top-k is re-derived by a driver-side scan. */
  private val scanSample = 16
  /** Requests after the timed phase of a traced run that measure the time
    * outside the kernel. */
  private val overheadProbes = 16
  /** Timed calls: fixed by `--seconds`, not by the clock, so a slow host
    * measures the same calls as a fast one. */
  private val timedCalls = wl.calls(args.seconds)

  private val tracer = new Tracer(args.trace)
  private var attempted = 0L
  private val failures = mutable.ArrayBuffer.empty[String]
  private val e2e = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val layer = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val info = mutable.LinkedHashMap.empty[String, String]

  /** Counts one checked operation; records its problems as one failure. */
  private def check(what: String, problems: Seq[String]): Unit = {
    attempted += 1
    if (problems.nonEmpty) failures += s"$what: ${problems.take(3).mkString("; ")}"
  }

  private def log(msg: String): Unit = System.err.println(s"[mstmbench ${wl.name}] $msg")

  private val refLoopMs = mutable.ArrayBuffer.empty[Double]

  private def phase[A](sc: SparkContext, name: String)(body: => A): A = {
    refLoopMs += HostProbe.refLoopMs()
    val ((r, gcS, jitS, heapMb), elapsedMs) = timed(JvmProbe.phase(sc)(tracer.span(name)(body)))
    log(f"phase $name: ${elapsedMs / 1e3}%.2f s")
    layer(s"jvm.gc_s.$name") = (gcS, "s")
    layer(s"jvm.jit_s.$name") = (jitS, "s")
    layer(s"jvm.heap_peak_mb.$name") = (heapMb, "MB")
    r
  }

  def execute(): Int = {
    HostProbe.refLoopMs() // compiles the loop, so that every sample times compiled code
    val (spark, startMs) = timed(Main.session(args.out, cores))
    layer("spark.session_start_s") = (startMs / 1e3, "s")
    try measure(spark)
    finally spark.stop()
    info("host_ref_loop_ms") = refLoopMs.map(x => f"$x%.2f").mkString(" ")
    layer("host.ref_loop_ms") = (Stats.median(refLoopMs.toSeq), "ms")
    report()
  }

  /** The inputs, made from the seed before any timed phase: the object
    * Dataset (cached), the training anchors and the eval queries. */
  private def inputs(spark: SparkSession): (Dataset[MMObject], Seq[MMQuery], Array[MMQuery]) = {
    val (objects, objectsMs) = timed(tracer.span("mmdata.objects") {
      val objects = MultiModalSynth.objects(spark, ds).cache()
      require(objects.count() == n)
      objects
    })
    layer("mmdata.objects_s") = (objectsMs / 1e3, "s")
    val ((anchors, evalQueries), queriesMs) = timed(tracer.span("mmdata.queries") {
      val projs = Array.tabulate(ds.m)(i => MultiModalSynth.projection(ds, i))
      val anchors = (0 until Workloads.TrainAnchors).map(i =>
        MultiModalSynth.mkQuery(ds, wl.enc, fullMask, seedTag = 1L, qid = i.toLong, projs))
      val eval = (0 until wl.evalQueries).map(i =>
        MultiModalSynth.mkQuery(ds, wl.enc, wl.masks(i % wl.masks.length), seedTag = 0L, qid = i.toLong, projs))
      (anchors, eval.toArray)
    })
    layer("mmdata.queries_s") = (queriesMs / 1e3, "s")
    (objects, anchors, evalQueries)
  }

  /** The steps of a run before set-up, and no more: start Spark and make
    * the inputs. The runner archives the classes this loads. */
  def inputsOnly(): Unit = {
    val spark = Main.session(args.out, cores)
    try inputs(spark)._1.unpersist()
    finally spark.stop()
  }

  private def measure(spark: SparkSession): Unit = {
    import spark.implicits._
    val sc = spark.sparkContext
    val counters = if (args.trace) Some(new SparkCounters(sc)) else None
    def work[A](body: => A): (A, Option[SparkWork]) = counters match {
      case Some(c) => val (r, w) = c.measure(body); (r, Some(w))
      case None    => (body, None)
    }

    info ++= Seq(
      "workload" -> wl.name, "seed" -> args.seed.toString, "seconds" -> args.seconds.toString,
      "trace" -> args.trace.toString, "nproc" -> cores.toString, "master" -> sc.master,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "query_partitions" -> queryPartitions.toString,
      "call" -> (if (wl.batch) "batch" else "request"), "queries_per_call" -> wl.queriesPerCall.toString,
      "timed_calls" -> timedCalls.toString,
      "heap_max_mb" -> (Runtime.getRuntime.maxMemory / (1 << 20)).toString,
      "jdk" -> s"${System.getProperty("java.vendor")} ${System.getProperty("java.version")}",
      "spark" -> spark.version, "dataset" -> ds.name, "n" -> n.toString, "m" -> ds.m.toString,
      "dim" -> ds.dim.toString, "gamma" -> indexCfg.gamma.toString, "l" -> searchCfg.l.toString,
      "k" -> searchCfg.k.toString, "masks" -> wl.masks.map(_.map(b => if (b) '1' else '0').mkString).mkString(","),
      "eval_queries" -> wl.evalQueries.toString, "train_anchors" -> Workloads.TrainAnchors.toString,
      "class_archive" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
        .find(_.startsWith("-XX:SharedArchiveFile=")).fold("none")(_.stripPrefix("-XX:SharedArchiveFile=")),
    )
    println("env " + compact(render(Json.strings(info))))

    val (objects, anchors, evalQueries) = inputs(spark)
    val anchorDs = spark.createDataset(anchors)
    val evalById = evalQueries.map(q => q.qid -> q).toMap

    // ---- set-up, once and cold: VectorStore.collect + learn + build --------
    // A fresh JVM pays this when a service restarts. One warm rebuild costs
    // as much again, more than a run can spend, so set-up is not repeated.
    val (store, w, index) = phase(sc, "setup") {
      val (store, collectMs) = timed(tracer.span("VectorStore.collect")(VectorStore.collect(objects)))
      val ((w, learnMs), learnWork) = work(timed(tracer.span("WeightLearning.learn")(
        WeightLearning.learn(anchorDs, objects, ds.m).weights)))
      val ((index, buildMs), buildWork) = work(timed(tracer.span("FusedIndexBuilder.build")(
        FusedIndexBuilder.build(spark, store, w, indexCfg))))
      val (collectS, learnS, buildS) = (collectMs / 1e3, learnMs / 1e3, buildMs / 1e3)
      log(f"set-up: collect $collectS%.2f s, learn $learnS%.2f s, build $buildS%.2f s, weights ${w.mkString(" ")}")
      e2e("setup_s") = (collectS + learnS + buildS, "s")
      layer("store.collect_s") = (collectS, "s")
      layer("learn.learn_s") = (learnS, "s")
      layer("build.build_s") = (buildS, "s")
      layer("setup.build_share") = (buildS / (learnS + buildS), "ratio")
      for (lw <- learnWork; bw <- buildWork) {
        layer("learn.spark_jobs") = (lw.jobs.toDouble, "count")
        layer("learn.tasks") = (lw.tasks.toDouble, "count")
        layer("learn.task_busy_s") = (lw.taskRunMs / 1e3, "s")
        layer("learn.busy_ratio") = (lw.taskRunMs / 1e3 / (learnS * cores), "ratio")
        layer("build.spark_jobs") = (bw.jobs.toDouble, "count")
        layer("build.stages") = (bw.stages.toDouble, "count")
        layer("build.tasks") = (bw.tasks.toDouble, "count")
        layer("build.shuffle_read_mb") = (bw.shuffleReadBytes / 1e6, "MB")
        layer("build.shuffle_write_mb") = (bw.shuffleWriteBytes / 1e6, "MB")
        layer("build.task_busy_s") = (bw.taskRunMs / 1e3, "s")
        layer("build.task_gc_s") = (bw.taskGcMs / 1e3, "s")
        layer("build.busy_ratio") = (bw.taskRunMs / 1e3 / (buildS * cores), "ratio")
      }
      (store, w, index)
    }
    check("index structure", Gate.checkIndex(index, n))
    layer("build.index_edges") = (index.adjacency.map(_.length.toLong).sum.toDouble, "count")
    layer("build.index_max_degree") = (index.maxDegree.toDouble, "count")
    e2e("index_mb") = (serializedMb(index), "MB")
    e2e("store_mb") = (serializedMb(store), "MB")

    // ---- driver replay of searchKernel on the request pool -----------------
    val pool = evalQueries.take(replayPool)
    def replay(q: MMQuery) =
      JointSearch.searchKernel(q.vecs.map(_.toArray).toArray, q.qid, w, index, store, searchCfg)
    val replayed = pool.map(q => q.qid -> replay(q)).toMap
    val kernelMs: Map[Long, Double] = tracer.span("searchKernel.replay") {
      pool.map(q => q.qid -> Stats.median((0 until 3).map(_ => timed(replay(q))._2))).toMap
    }

    def checkAgainstReplay(what: String, r: JointSearch.SearchResult): Unit =
      replayed.get(r.qid).foreach { case (ids, dots, pruned, hops, _) =>
        check(s"$what agrees with searchKernel replay",
          if (r.results == ids.toSeq.map(_.toLong) && r.dotProducts == dots &&
              r.prunedObjects == pruned && r.hops == hops) Nil
          else Seq(s"qid ${r.qid}: search ${r.results.mkString(",")} vs replay ${ids.mkString(",")}"))
      }

    // ---- a request: one query per search call -----------------------------
    var requests = 0L
    def request(): Double = {
      val req = requests
      val q = pool((req % pool.length).toInt)
      requests += 1
      val (res, elapsed) = timed(tracer.span("request", req) {
        val one = tracer.span("createDataset", req)(spark.createDataset(Seq(q)))
        val found = tracer.span("JointSearch.search", req)(JointSearch.search(one, index, store, w, searchCfg))
        tracer.span("collect", req)(found.collect())
      })
      check(s"request $req", if (res.length == 1) Gate.checkResult(res(0).results, searchCfg.k, n)
        else Seq(s"${res.length} results for one query"))
      res.foreach(r => checkAgainstReplay(s"request $req", r))
      elapsed
    }

    // ---- a batch: the whole eval set per search call -----------------------
    val qDs = spark.createDataset(evalQueries.toSeq).repartition(queryPartitions).cache()
    require(qDs.count() == evalQueries.length)
    var first: Map[Long, JointSearch.SearchResult] = null
    var batches = 0L
    val busy = mutable.ArrayBuffer.empty[Double]
    val skew = mutable.ArrayBuffer.empty[Double]
    def batch(): Double = {
      val i = batches
      batches += 1
      val ((res, elapsed), bw) = work(timed(tracer.span("batch", i)(
        JointSearch.search(qDs, index, store, w, searchCfg).collect())))
      bw.filter(_.taskRunTimes.nonEmpty).foreach { b =>
        busy += b.taskRunMs / (elapsed * cores)
        skew += b.taskRunTimes.max / math.max(1.0, Stats.median(b.taskRunTimes.map(_.toDouble)))
      }
      val byId = res.map(r => r.qid -> r).toMap
      check(s"batch $i answers every query once",
        if (res.length == evalQueries.length && byId.keySet == evalById.keySet) Nil
        else Seq(s"${res.length} results, ${byId.size} distinct qids for ${evalQueries.length} queries"))
      if (first == null) {
        first = byId
        res.foreach { r =>
          check(s"batch result ${r.qid}", Gate.checkResult(r.results, searchCfg.k, n))
          checkAgainstReplay("batch result", r)
        }
      } else check(s"batch $i repeats batch 0",
        if (byId == first) Nil else Seq("results differ between batches over the same queries"))
      elapsed
    }

    // The reference batch, on every workload: its results are checked
    // against the replay and give recall, hit and the kernel counts; every
    // later batch must repeat them.
    tracer.span("reference batch")(batch())
    val call: () => Double = if (wl.batch) () => batch() else () => request()

    // ---- warm-up, then the timed calls -------------------------------------
    phase(sc, "warmup") {
      val rounds = warmUp(() => Stats.median(Seq.fill(wl.warmupWindow)(call())))
      layer("bench.warmup_calls") = ((rounds * wl.warmupWindow).toDouble, "count")
      log(s"warm-up: $rounds rounds of ${wl.warmupWindow} calls")
    }
    val callMs = mutable.ArrayBuffer.empty[Double]
    val tracedMs = mutable.ArrayBuffer.empty[Double]
    phase(sc, "timed") {
      val live0 = MstmBenchAccess.liveBroadcastIds(sc)
      for (i <- 0 until timedCalls) {
        // A traced run alternates traced and untraced calls; the difference
        // of their medians is the tracing overhead.
        tracer.recording = args.trace && i % 2 == 1
        val elapsed = call()
        if (tracer.recording) tracedMs += elapsed else callMs += elapsed
      }
      tracer.recording = args.trace
      layer("search.live_broadcasts_end") =
        ((MstmBenchAccess.liveBroadcastIds(sc) -- live0).size.toDouble, "count")
    }
    e2e("query_p50_ms") = (Stats.median(callMs.toSeq), "ms")
    e2e("search_qps") = (Stats.median(callMs.toSeq.map(Metrics.qps(wl.queriesPerCall, _))), "1/s")
    layer("search.call_ms_p50") = (Stats.median(callMs.toSeq), "ms")
    layer("search.call_ms_p80") = (Stats.quantile(callMs.toSeq, 0.8), "ms")
    layer("search.calls") = (callMs.length.toDouble, "count")
    layer("bench.drift_ratio") = (Stats.driftRatio(callMs.toSeq), "ratio")
    log(s"timed calls, ms by tenth: ${callMs.grouped(math.max(1, callMs.length / 10))
      .map(g => f"${g.sum / g.length}%.1f").mkString(" ")}")
    if (args.trace) {
      layer("trace.overhead.query_p50_ms") = (Stats.median(tracedMs.toSeq) - Stats.median(callMs.toSeq), "ms")
      layer("batch.busy_ratio") = (Stats.median(busy.toSeq), "ratio")
      layer("batch.skew") = (Stats.median(skew.toSeq), "ratio")
      // Time outside the kernel, from untraced requests on pool queries:
      // request time minus the driver replay of the same query.
      tracer.recording = false
      val probed = (0 until overheadProbes).map { _ =>
        val q = pool((requests % pool.length).toInt)
        val elapsed = request()
        (elapsed, elapsed - kernelMs(q.qid))
      }
      tracer.recording = true
      layer("search.overhead_ms_p50") = (Stats.median(probed.map(_._2)), "ms")
      layer("search.outside_kernel_share") =
        (Stats.median(probed.map(_._2)) / Stats.median(probed.map(_._1)), "ratio")
      // Exact per-call counts from a few probed requests: the broadcast ids
      // a search call takes are those between two probe broadcasts.
      val probes = (0 until 4).map { i =>
        val q = pool(i)
        val b0 = sc.broadcast(0)
        val (found, ww) = counters.get.measure(JointSearch.search(spark.createDataset(Seq(q)), index, store, w, searchCfg))
        val b1 = sc.broadcast(0)
        val (_, cw) = counters.get.measure(found.collect())
        b0.destroy(); b1.destroy()
        (b1.id - b0.id - 1 - ww.stages, ww.jobs + cw.jobs, ww.tasks + cw.tasks)
      }
      layer("search.broadcasts_per_call") = (Stats.median(probes.map(_._1.toDouble)), "count")
      layer("search.spark_jobs_per_call") = (Stats.median(probes.map(_._2.toDouble)), "count")
      layer("search.tasks_per_call") = (Stats.median(probes.map(_._3.toDouble)), "count")
    }
    qDs.unpersist()

    // ---- kernel counts, from the reference batch --------------------------
    val results = first.values.toSeq
    val dots = results.map(_.dotProducts).sum.toDouble / results.length
    val pruned = results.map(_.prunedObjects).sum.toDouble / results.length
    val bruteDots = evalQueries.map(q => n.toDouble * activeModalities(q, w)).sum / evalQueries.length
    layer("kernel.dots_per_query") = (dots, "count")
    layer("kernel.hops_per_query") = (results.map(_.hops).sum.toDouble / results.length, "count")
    layer("kernel.pruned_per_query") = (pruned, "count")
    layer("kernel.prune_yield") = (pruned / dots, "ratio")
    layer("kernel.work_ratio") = (dots / bruteDots, "ratio")
    layer("kernel.us_per_query") = (Stats.median(kernelMs.values.toSeq) * 1e3, "us")
    layer("similarity.ns_per_dot") =
      (kernelMs.values.sum * 1e6 / pool.map(q => replayed(q.qid)._2).sum, "ns")
    e2e("hit_at_10") = (Metrics.recallSingleGt(results.map(r => r.gt -> r.results), 10), "ratio")

    // ---- verification: exact top-k and its independent re-derivation ------
    val sample = evalQueries.take(recallSample)
    phase(sc, "verify") {
      val (exact, exactMs) = timed(tracer.span("BruteForceSearch.topK")(
        BruteForceSearch.topK(sample, objects, w, searchCfg.k)))
      layer("verify.bruteforce_topk_s") = (exactMs / 1e3, "s")
      check("BruteForceSearch.topK answers every sampled query",
        if (exact.map(_.qid).toSeq == sample.map(_.qid).toSeq) Nil else Seq("qids differ from the sample"))
      exact.foreach(e => check(s"exact result ${e.qid}", Gate.checkResult(e.results, searchCfg.k, n)))
      exact.take(scanSample).foreach { e =>
        check(s"exact result ${e.qid} matches a driver-side scan", scanCheck(evalById(e.qid), e.results, store, w))
      }
      val recall = Metrics.recallAgainstSets(exact.toSeq.map(e => first(e.qid).results -> e.results.toSet), 10)
      e2e("recall_at_10") = (recall, "ratio")
      check(s"recall_at_10 >= ${wl.recallFloor}",
        if (recall >= wl.recallFloor) Nil else Seq(f"recall_at_10 = $recall%.4f"))
    }
    objects.unpersist()
    layer("trace.spans") = (tracer.count.toDouble, "count")
    if (args.trace) tracer.writeJsonLines(args.out.resolve(s"trace-${wl.name}-seed${args.seed}.jsonl"))
  }

  /** Modalities a query is scored on: non-empty slots with non-zero weight. */
  private def activeModalities(q: MMQuery, w: Array[Double]): Int =
    q.vecs.indices.count(i => q.vecs(i).nonEmpty && w(i) != 0.0)

  /** Re-derives one query's exact top-k by scoring every object on the
    * driver, without the program's similarity code, and checks that the
    * brute-force ids carry the same scores in the same order (ties may
    * order differently). */
  private def scanCheck(q: MMQuery, ids: Seq[Long], store: VectorStore, w: Array[Double]): Seq[String] = {
    val qv = q.vecs.map(_.toArray).toArray
    def score(o: Array[Array[Double]]): Double = {
      var s = 0.0
      for (i <- qv.indices if qv(i).nonEmpty) {
        var d = 0.0
        var j = 0
        while (j < qv(i).length) { d += qv(i)(j) * o(i)(j); j += 1 }
        s += w(i) * d
      }
      s
    }
    val all = store.vecs.map(score)
    val want = all.sorted(Ordering[Double].reverse).take(ids.length)
    val got = ids.map(id => all(id.toInt))
    if (want.zip(got).forall { case (a, b) => math.abs(a - b) <= 1e-9 }) Nil
    else Seq(s"qid ${q.qid}: brute-force scores ${got.mkString(",")} vs scan ${want.mkString(",")}")
  }

  /** Warm-up: runs `round`, which returns a time, until its drift ratio
    * (this round's time over the round before) has stayed within
    * `Workloads.WarmupTolerance` of 1 for two rounds in a row; at least three
    * and at most `Workloads.WarmupMaxRounds` rounds. Returns the rounds. */
  private def warmUp(round: () => Double): Int = {
    var prev = round()
    var rounds = 1
    var settledRounds = 0
    while (settledRounds < 2 && rounds < Workloads.WarmupMaxRounds) {
      val cur = round()
      settledRounds = if (math.abs(cur / prev - 1) <= Workloads.WarmupTolerance) settledRounds + 1 else 0
      prev = cur
      rounds += 1
    }
    rounds
  }

  private def report(): Int = {
    val correct = failures.isEmpty
    failures.take(20).foreach(f => System.err.println(s"FAILED $f"))
    val chosen = if (args.trace) layer else e2e
    val result = JObject(
      "correct" -> JBool(correct), "attempted" -> JLong(attempted), "failed" -> JLong(failures.length.toLong),
      "metrics" -> JObject(chosen.toList.map { case (k, (v, unit)) =>
        k -> JObject("value" -> Json.num(v), "unit" -> JString(unit))
      }))
    val record = JObject(
      "env" -> Json.strings(info), "result" -> result,
      "failures" -> JArray(failures.take(100).map(JString(_)).toList))
    Files.writeString(args.out.resolve(s"result-${wl.name}-seed${args.seed}-trace${if (args.trace) 1 else 0}.json"),
      compact(render(record)) + "\n")
    println(compact(render(result)))
    if (correct) 0 else 1
  }
}
