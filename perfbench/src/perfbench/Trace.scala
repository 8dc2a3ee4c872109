package perfbench

import java.util.concurrent.{CountDownLatch, TimeUnit}

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Spark work attributed to one span: what the listener saw for the jobs
  * submitted under that span's job group.
  */
final class SparkCounters {
  var jobs = 0L
  var stages = 0L
  var tasks = 0L
  var shuffleWriteBytes = 0L
  var shuffleReadBytes = 0L
  var spillBytes = 0L
  var taskRunMs = 0L
  var taskGcMs = 0L

  def +=(o: SparkCounters): Unit = {
    jobs += o.jobs; stages += o.stages; tasks += o.tasks
    shuffleWriteBytes += o.shuffleWriteBytes; shuffleReadBytes += o.shuffleReadBytes
    spillBytes += o.spillBytes; taskRunMs += o.taskRunMs; taskGcMs += o.taskGcMs
  }
}

/** One timed interval of a traced run. `parent` is the id of the span that
  * contains it (-1 for a root); `counts` are layer counters recorded inside
  * the span.
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long,
                      counts: Map[String, Double]) {
  def durNs: Long = endNs - startNs
}

object Spans {

  /** Nanoseconds of `[lo, hi)` covered by the union of `intervals`. */
  def covered(lo: Long, hi: Long, intervals: Seq[(Long, Long)]): Long = {
    val clipped = intervals.map { case (s, e) => (math.max(s, lo), math.min(e, hi)) }
      .filter { case (s, e) => e > s }.sortBy(_._1)
    var total = 0L; var curS = 0L; var curE = Long.MinValue
    for ((s, e) <- clipped) {
      if (s > curE) {
        if (curE > curS) total += curE - curS
        curS = s; curE = e
      } else curE = math.max(curE, e)
    }
    if (curE > curS) total += curE - curS
    total
  }

  /** A span's self time: its duration minus the part its children cover. */
  def selfNs(span: Span, all: Seq[Span]): Long =
    span.durNs - covered(span.startNs, span.endNs,
      all.filter(_.parent == span.id).map(s => (s.startNs, s.endNs)))
}

/** Records spans in memory and, through a [[SparkListener]] the benchmark
  * registers, the Spark jobs, stages, tasks, shuffle, spill, executor run
  * time and GC of each span. Attribution is by job group: every span sets a
  * group of its own on the calling thread, and Spark carries the group to
  * the jobs submitted from it.
  */
final class Tracer(sc: SparkContext) {
  /** The local property under which Spark keeps a thread's job group. */
  private val JobGroupKey = "spark.jobGroup.id"
  private val GroupPrefix = "perfbench-span-"
  private val BarrierGroup = "perfbench-barrier"

  private val spans = mutable.ArrayBuffer.empty[Span]
  private val open = mutable.Stack.empty[(Int, mutable.Map[String, Double])]
  private var nextId = 0

  // Listener state; the listener bus calls in on its own thread.
  private val byGroup = mutable.Map.empty[String, SparkCounters]
  private val stageGroup = mutable.Map.empty[Int, String]
  private val barrierJobs = mutable.Set.empty[Int]
  private val unattributed = new SparkCounters
  @volatile private var barrier = new CountDownLatch(1)

  private def countersOf(group: String): SparkCounters =
    if (group != null && group.startsWith(GroupPrefix)) byGroup.getOrElseUpdate(group, new SparkCounters)
    else if (group == BarrierGroup) new SparkCounters
    else unattributed

  private val listener = new SparkListener {
    override def onJobStart(ev: SparkListenerJobStart): Unit = byGroup.synchronized {
      val group = Option(ev.properties).map(_.getProperty(JobGroupKey)).orNull
      if (group == BarrierGroup) barrierJobs += ev.jobId
      countersOf(group).jobs += 1
      ev.stageIds.foreach(s => stageGroup(s) = group)
    }
    override def onJobEnd(ev: SparkListenerJobEnd): Unit = byGroup.synchronized {
      if (barrierJobs.remove(ev.jobId)) barrier.countDown()
    }
    override def onStageCompleted(ev: SparkListenerStageCompleted): Unit = byGroup.synchronized {
      countersOf(stageGroup.getOrElse(ev.stageInfo.stageId, null)).stages += 1
    }
    override def onTaskEnd(ev: SparkListenerTaskEnd): Unit = byGroup.synchronized {
      val c = countersOf(stageGroup.getOrElse(ev.stageId, null))
      c.tasks += 1
      val m = ev.taskMetrics
      if (m != null) {
        c.taskRunMs += m.executorRunTime
        c.taskGcMs += m.jvmGCTime
        c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
        c.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
        c.spillBytes += m.memoryBytesSpilled + m.diskBytesSpilled
      }
    }
  }
  sc.addSparkListener(listener)

  private def setGroup(): Unit = open.headOption match {
    case Some((id, _)) => sc.setJobGroup(GroupPrefix + id, "")
    case None          => sc.clearJobGroup()
  }

  /** Time `body` as a span named `name`, nested in the innermost open span.
    * Spark jobs it submits are attributed to it.
    */
  def span[A](name: String)(body: => A): A = {
    val id = nextId; nextId += 1
    val parent = open.headOption.map(_._1).getOrElse(-1)
    val counts = mutable.Map.empty[String, Double]
    open.push((id, counts))
    setGroup()
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      open.pop()
      setGroup()
      spans += Span(id, parent, name, t0, t1, counts.toMap)
    }
  }

  /** Record a counter on the innermost open span. */
  def count(name: String, value: Double): Unit = open.head._2(name) = value

  /** Wait until the listener has seen every event posted so far: run a tiny
    * job in a group of its own and wait for its end, which the listener bus
    * delivers after every earlier event.
    */
  def drain(): Unit = {
    barrier = new CountDownLatch(1)
    sc.setJobGroup(BarrierGroup, "")
    try sc.parallelize(Seq(1), 1).count() finally setGroup()
    if (!barrier.await(60, TimeUnit.SECONDS))
      throw new IllegalStateException("the Spark listener did not catch up within 60 s")
  }

  def stop(): Unit = sc.removeSparkListener(listener)

  def all: Seq[Span] = spans.toSeq.sortBy(_.startNs)

  def named(name: String): Span = spans.find(_.name == name)
    .getOrElse(throw new NoSuchElementException(s"no span $name"))

  /** Spark counters of `span` and all spans nested in it. */
  def counters(span: Span): SparkCounters = byGroup.synchronized {
    val out = new SparkCounters
    def add(s: Span): Unit = {
      byGroup.get(GroupPrefix + s.id).foreach(out += _)
      spans.filter(_.parent == s.id).foreach(add)
    }
    add(span)
    out
  }

  /** Tasks the listener could not attribute to any span. */
  def unattributedTasks: Long = byGroup.synchronized(unattributed.tasks)
}
