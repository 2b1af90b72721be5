package repro.perfbench

import java.lang.management.ManagementFactory
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.{ListenerDrain, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** Spark work counted by a listener: jobs, tasks, records read from the
  * input files, shuffle bytes written and task-result bytes sent to the
  * driver.
  */
final case class SparkCounts(jobs: Long, tasks: Long, inputRecords: Long, shuffleBytes: Long, resultBytes: Long) {
  def -(o: SparkCounts): SparkCounts =
    SparkCounts(jobs - o.jobs, tasks - o.tasks, inputRecords - o.inputRecords, shuffleBytes - o.shuffleBytes, resultBytes - o.resultBytes)
  def +(o: SparkCounts): SparkCounts =
    SparkCounts(jobs + o.jobs, tasks + o.tasks, inputRecords + o.inputRecords, shuffleBytes + o.shuffleBytes, resultBytes + o.resultBytes)
}

object SparkCounts { val zero: SparkCounts = SparkCounts(0, 0, 0, 0, 0) }

final class CountingListener extends SparkListener {
  @volatile private var c = SparkCounts.zero

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { c = c.copy(jobs = c.jobs + 1) }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    c = if (m == null) c.copy(tasks = c.tasks + 1)
    else c + SparkCounts(0, 1, m.inputMetrics.recordsRead, m.shuffleWriteMetrics.bytesWritten, m.resultSize)
  }

  def snapshot: SparkCounts = synchronized(c)
}

/** Garbage-collection accounting from the JVM's management beans: total
  * collection time, and the old-generation occupancy right after each
  * collection, stamped with the collection's start (JVM uptime, ms).
  */
object Gc {
  private val afterGc = mutable.ArrayBuffer.empty[(Long, Long)]

  private val listener = new NotificationListener {
    def handleNotification(n: Notification, handback: Any): Unit =
      if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData]).getGcInfo
        val old = info.getMemoryUsageAfterGc.asScala.collect {
          case (pool, usage) if pool.contains("Old Gen") || pool.contains("Tenured") => usage.getUsed
        }.sum
        Gc.synchronized { afterGc += ((info.getStartTime, old)) }
      }
  }

  ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
    case e: NotificationEmitter => e.addNotificationListener(listener, null, null)
    case _                      => ()
  }

  def uptimeMs: Long = ManagementFactory.getRuntimeMXBean.getUptime

  def timeMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  /** Largest old-generation occupancy after a collection that started in
    * [fromMs, toMs] of JVM uptime, in MiB.
    */
  def peakOldMb(fromMs: Long, toMs: Long): Double = Gc.synchronized {
    afterGc.collect { case (t, b) if t >= fromMs && t <= toMs => b }.maxOption.getOrElse(0L) / (1024.0 * 1024.0)
  }
}

/** A timed region at a layer boundary. Spans of one workload run share
  * `runId`; `parent` is the enclosing span (-1 at the top).
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long, spark: SparkCounts) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** Keeps spans in memory and writes them out when the run ends. When
  * disabled, `span` only runs its body: end-to-end figures are measured
  * with tracing off.
  */
final class Tracer(val enabled: Boolean, val runId: String, sc: SparkContext) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private val stack = mutable.Stack.empty[Int]
  private val listener = new CountingListener
  if (enabled) sc.addSparkListener(listener)

  private def counts(): SparkCounts = { ListenerDrain(sc); listener.snapshot }

  def span[A](name: String, countSpark: Boolean = true)(body: => A): A =
    if (!enabled) body
    else {
      val id = spans.length
      val parent = stack.headOption.getOrElse(-1)
      spans += Span(id, parent, name, 0L, 0L, SparkCounts.zero)
      stack.push(id)
      val c0 = if (countSpark) counts() else SparkCounts.zero
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        val c1 = if (countSpark) counts() else SparkCounts.zero
        stack.pop()
        spans(id) = Span(id, parent, name, t0, t1, c1 - c0)
      }
    }

  /** Spans named `name`; `within` restricts to descendants of that span. */
  def named(name: String, within: Option[Span] = None): Seq[Span] = {
    def under(s: Span): Boolean = within.forall { w =>
      var p = s.parent
      while (p >= 0 && p != w.id) p = spans(p).parent
      p == w.id
    }
    spans.filter(s => s.name == name && under(s)).toSeq
  }

  def writeJson(path: java.nio.file.Path, extra: Map[String, Any]): Unit = {
    import org.json4s._
    import org.json4s.jackson.JsonMethods._
    implicit val formats: Formats = DefaultFormats
    val doc = Map(
      "run_id" -> runId,
      "spans" -> spans.map { s =>
        Map(
          "id" -> s.id, "parent" -> s.parent, "name" -> s.name,
          "start_ns" -> s.startNs, "end_ns" -> s.endNs,
          "spark_jobs" -> s.spark.jobs, "spark_tasks" -> s.spark.tasks,
          "input_records" -> s.spark.inputRecords, "shuffle_bytes" -> s.spark.shuffleBytes,
          "result_bytes" -> s.spark.resultBytes
        )
      }.toList
    ) ++ extra
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.writeString(path, compact(Extraction.decompose(doc)))
  }
}
