package org.apache.spark

import org.apache.spark.storage.BroadcastBlockId

/** The two Spark internals the benchmark reads. It waits for the listener
  * bus to deliver every queued event before it reads its own listener's
  * counters, and it lists the broadcast variables whose blocks the block
  * manager still holds. Both are `private[spark]`, hence this package.
  */
object MstmBenchAccess {

  def drainListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()

  def liveBroadcastIds(sc: SparkContext): Set[Long] =
    sc.env.blockManager.master
      .getMatchingBlockIds(_.isBroadcast, askStorageEndpoints = true)
      .collect { case BroadcastBlockId(id, _) => id }
      .toSet
}
