package org.apache.spark

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession

/** Counts the Spark jobs a block of code starts. The listener bus is
  * drained before and after the block, so the count holds exactly that
  * block's jobs; draining is package-private, hence this object's package.
  *
  * Adaptive query execution is switched off for the block: it submits every
  * shuffle stage as a job of its own, which would make the count a measure
  * of plan shape rather than of passes over the data.
  */
object SparkJobCounter {

  def apply[A](spark: SparkSession)(body: => A): (A, Long) = {
    val sc = spark.sparkContext
    val jobs = new AtomicLong()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = { jobs.incrementAndGet(); () }
    }
    val aqe = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    sc.listenerBus.waitUntilEmpty(30000L)
    sc.addSparkListener(listener)
    try {
      val result = body
      sc.listenerBus.waitUntilEmpty(30000L)
      (result, jobs.get())
    } finally {
      sc.removeSparkListener(listener)
      spark.conf.set("spark.sql.adaptive.enabled", aqe)
    }
  }
}
