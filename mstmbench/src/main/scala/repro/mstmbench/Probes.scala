package repro.mstmbench

import java.lang.management.{ManagementFactory, MemoryType}

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import org.apache.spark.{MstmBenchAccess, SparkContext}
import org.apache.spark.scheduler._
import org.json4s._
import org.json4s.jackson.JsonMethods.{compact, render}

/** Spark work done between two points, as counted by [[SparkCounters]]. */
final case class SparkWork(
    jobs: Long,
    stages: Long,
    tasks: Long,
    taskRunMs: Long,
    taskGcMs: Long,
    shuffleReadBytes: Long,
    shuffleWriteBytes: Long,
    taskRunTimes: IndexedSeq[Long],
)

/** Counts Spark jobs, stages and tasks, with each task's run time, GC time
  * and shuffle bytes. Reads drain the listener bus first, so a read after a
  * call returns sees every event that call caused.
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  private var jobs = 0L
  private var stages = 0L
  private val runTimes = ArrayBuffer.empty[Long]
  private var gcMs = 0L
  private var readBytes = 0L
  private var writeBytes = 0L

  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobs += 1 }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized { stages += 1 }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m == null) runTimes += 0L
    else {
      runTimes += m.executorRunTime
      gcMs += m.jvmGCTime
      readBytes += m.shuffleReadMetrics.totalBytesRead
      writeBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  private def mark(): SparkCounters.Mark = {
    MstmBenchAccess.drainListeners(sc)
    synchronized { SparkCounters.Mark(jobs, stages, runTimes.length, gcMs, readBytes, writeBytes) }
  }

  /** Runs `body` and returns its result with the Spark work it caused. */
  def measure[A](body: => A): (A, SparkWork) = {
    val a = mark()
    val r = body
    val b = mark()
    val times = synchronized { runTimes.slice(a.tasks, b.tasks).toIndexedSeq }
    (r, SparkWork(b.jobs - a.jobs, b.stages - a.stages, (b.tasks - a.tasks).toLong,
      times.sum, b.gcMs - a.gcMs, b.read - a.read, b.write - a.write, times))
  }
}

object SparkCounters {
  private final case class Mark(jobs: Long, stages: Long, tasks: Int, gcMs: Long, read: Long, write: Long)
}

/** In-memory spans: name, start, end, parent span and call id. A span's
  * parent is the span open around it; spans of one call share `req`.
  * Recording is switched per call so a traced run can interleave traced
  * and untraced calls and report the difference as tracing overhead.
  */
final class Tracer(val enabled: Boolean) {
  private val spans = ArrayBuffer.empty[Tracer.Span]
  private var open: List[Int] = Nil
  private var nextId = 0
  var recording: Boolean = enabled

  def count: Int = spans.length

  def span[A](name: String, req: Long = -1L)(body: => A): A =
    if (!recording) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        open = open.tail
        spans += Tracer.Span(id, parent, req, name, t0, System.nanoTime())
      }
    }

  def writeJsonLines(path: java.nio.file.Path): Unit = {
    val lines = spans.iterator.map { s =>
      compact(render(JObject("id" -> JLong(s.id), "parent" -> JLong(s.parent), "req" -> JLong(s.req),
        "name" -> JString(s.name), "start_ns" -> JLong(s.startNs), "end_ns" -> JLong(s.endNs))))
    }
    java.nio.file.Files.write(path, lines.toSeq.asJava)
  }
}

object Tracer {
  final case class Span(id: Int, parent: Int, req: Long, name: String, startNs: Long, endNs: Long)
}

/** JVM garbage-collection time and peak heap use over one phase. */
object JvmProbe {
  private def gcMs: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  private def heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)

  /** Collects garbage, then waits, at most 3 s, until Spark's
    * ContextCleaner has removed the broadcasts that garbage held: a phase
    * then starts from a clean heap and does not pay for the clean-up of
    * the phase before it. */
  def settle(sc: SparkContext): Unit = {
    System.gc()
    val deadline = System.nanoTime() + 3000000000L
    var prev = -1
    var live = MstmBenchAccess.liveBroadcastIds(sc).size
    while (live != prev && System.nanoTime() < deadline) {
      Thread.sleep(100)
      prev = live
      live = MstmBenchAccess.liveBroadcastIds(sc).size
    }
  }

  /** Milliseconds the JIT compilers have spent so far. */
  private def jitMs: Long = ManagementFactory.getCompilationMXBean.getTotalCompilationTime

  /** Runs `body`; returns its result, GC seconds, JIT compilation seconds
    * and peak heap MB in it. */
  def phase[A](sc: SparkContext)(body: => A): (A, Double, Double, Double) = {
    settle(sc)
    heapPools.foreach(_.resetPeakUsage())
    val gc0 = gcMs
    val jit0 = jitMs
    val r = body
    val peak = heapPools.map(_.getPeakUsage.getUsed).sum
    (r, (gcMs - gc0) / 1e3, (jitMs - jit0) / 1e3, peak / 1e6)
  }
}

/** How fast the host runs this VM, apart from the program. */
object HostProbe {
  @volatile private var sink = 0L

  /** Milliseconds of a fixed single-thread integer loop, the median of five
    * tries. It does no work of the program, so across runs it moves only
    * with the speed the host gives this VM. */
  def refLoopMs(): Double = Stats.median(Seq.fill(5) {
    val t0 = System.nanoTime()
    var x = 0x9E3779B97F4A7C15L
    var i = 0
    while (i < 4000000) { x ^= x << 13; x ^= x >>> 7; x ^= x << 17; i += 1 }
    sink = x
    (System.nanoTime() - t0) / 1e6
  })
}

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolation quantile (type 7, as numpy's default). */
  def quantile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    val h = (s.length - 1) * p
    val lo = math.floor(h).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (h - lo) * (s(hi) - s(lo))
  }

  /** Mean of the last tenth of `xs` over the mean of the first tenth. */
  def driftRatio(xs: Seq[Double]): Double = {
    val t = math.max(1, xs.length / 10)
    (xs.takeRight(t).sum / t) / (xs.take(t).sum / t)
  }
}

/** JSON values for the report, written with the json4s on Spark's classpath. */
object Json {
  /** A number, or null where it is not finite: JSON has no NaN. */
  def num(x: Double): JValue = if (x.isNaN || x.isInfinite) JNull else JDouble(x)

  def strings(kv: scala.collection.Map[String, String]): JObject =
    JObject(kv.toList.map { case (k, v) => k -> JString(v) })
}
