package org.apache.spark

/** Waits until the session's listener bus has delivered every posted event,
  * so listener counts read afterwards are complete. The bus is private to
  * Spark, hence this object's package.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
