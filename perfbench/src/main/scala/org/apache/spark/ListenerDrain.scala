package org.apache.spark

/** Waits until every Spark event posted so far has reached the listeners,
  * so that counts read right after a call include all of that call's tasks.
  * The listener bus is package-private, hence this object's package.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(30000L)
}
