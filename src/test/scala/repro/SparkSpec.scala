package repro

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import java.util.concurrent.atomic.AtomicInteger
import scala.jdk.CollectionConverters._
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * The master is `SPARK_MASTER` (default `local[*]`); the driver heap is
  * set via ``Test / javaOptions`` in build.sbt from SPARK_DRIVER_MEM.
  * The program runs no SQL joins or shuffles (the index build, the exact
  * scans and search all run on the driver's cores over the collected
  * store), so the shuffle-partition and broadcast-join settings below do
  * not shape any measured path.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** `f`'s value, the Spark jobs it started and the broadcasts it created. */
  def sparkWork[A](f: => A): (A, Int, Long) = {
    val (a, jobTasks, broadcasts) = sparkJobs(f)
    (a, jobTasks.length, broadcasts)
  }

  /** `f`'s value, the tasks each Spark job it started ran (in start order)
    * and the broadcasts it created. Jobs are the `onJobStart` events between
    * two marker jobs: a listener gets its events in order, so once the second
    * marker is seen every job of `f` has been. A job's tasks are those of the
    * stages it submitted; a stage whose output is already there, such as
    * the shuffle under a cached Dataset, is skipped and not counted.
    * Broadcasts are the id gap between two probe broadcasts, made inside the
    * markers. */
  def sparkJobs[A](f: => A): (A, Seq[Int], Long) = {
    val sc = spark.sparkContext
    val markers = new AtomicInteger
    val jobTasks = new ConcurrentLinkedQueue[AtomicInteger]
    val stageJob = new ConcurrentHashMap[Int, AtomicInteger]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty("spark.jobGroup.id") == "sparkWork.marker")) markers.incrementAndGet()
        else if (markers.get == 1) {
          val tasks = new AtomicInteger
          jobTasks.add(tasks)
          e.stageIds.foreach(stageJob.put(_, tasks))
        }
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
        Option(stageJob.get(e.stageInfo.stageId)).foreach(_.addAndGet(e.stageInfo.numTasks))
    }
    def marker(): Unit = {
      sc.setJobGroup("sparkWork.marker", "marker")
      try sc.parallelize(Seq(0), 1).count() finally sc.clearJobGroup()
    }
    sc.addSparkListener(listener)
    try {
      marker()
      val b0 = sc.broadcast(0)
      val a = f
      val b1 = sc.broadcast(0)
      marker()
      b0.destroy(); b1.destroy()
      val deadline = System.nanoTime() + 30e9.toLong
      while (markers.get < 2 && System.nanoTime() < deadline) Thread.sleep(5)
      assert(markers.get == 2, "the listener did not see the second marker job")
      (a, jobTasks.asScala.toList.map(_.get), b1.id - b0.id - 1)
    } finally sc.removeSparkListener(listener)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
