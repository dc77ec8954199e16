package repro.graph

/** The best `cap` of the (id, ip) pairs offered to it, ranked best first:
  * IP descending by `java.lang.Double.compare`, then id ascending. A
  * bounded heap of primitive entries whose root is the worst pair kept, so
  * an offer costs O(log cap). The order is total, so the pairs kept and
  * their order do not depend on the order of the offers: they are the
  * prefix that sorting every pair offered would give.
  *
  * The exact scans offer every object ([[VectorStore.topK]]); the NNDescent
  * rounds and component ② offer a vertex's candidates
  * ([[FusedIndexBuilder.candidates]]).
  */
private[graph] final class BestK(cap: Int) {
  private val ids = new Array[Int](cap)
  private val ips = new Array[Double](cap)
  private var size = 0

  /** (idA, ipA) ranks after (idB, ipB). */
  private def after(idA: Int, ipA: Double, idB: Int, ipB: Double): Boolean = {
    val c = java.lang.Double.compare(ipA, ipB)
    c < 0 || (c == 0 && idA > idB)
  }

  def offer(id: Int, ip: Double): Unit =
    if (size < cap) {
      // Sift up: each parent the new pair ranks after moves down a level.
      var i = size
      size += 1
      while (i > 0 && after(id, ip, ids((i - 1) / 2), ips((i - 1) / 2))) {
        val p = (i - 1) / 2
        ids(i) = ids(p); ips(i) = ips(p); i = p
      }
      ids(i) = id; ips(i) = ip
    } else if (size > 0 && after(ids(0), ips(0), id, ip)) siftDown(id, ip, size)

  /** Puts (id, ip) in the root's place and sifts it down the heap's first
    * `end` slots: each child it ranks before, the worse of two, moves up. */
  private def siftDown(id: Int, ip: Double, end: Int): Unit = {
    var i = 0
    var done = false
    while (!done) {
      val l = 2 * i + 1
      if (l >= end) done = true
      else {
        val c = if (l + 1 < end && after(ids(l + 1), ips(l + 1), ids(l), ips(l))) l + 1 else l
        if (after(ids(c), ips(c), id, ip)) { ids(i) = ids(c); ips(i) = ips(c); i = c }
        else done = true
      }
    }
    ids(i) = id; ips(i) = ip
  }

  /** The pairs kept, best first, by a heap sort in place (the worst left
    * moves to the back each step), so it is called once. */
  def result(): (Array[Int], Array[Double]) = {
    var end = size
    while (end > 1) {
      end -= 1
      val id = ids(end); val ip = ips(end)
      ids(end) = ids(0); ips(end) = ips(0)
      siftDown(id, ip, end)
    }
    (java.util.Arrays.copyOf(ids, size), java.util.Arrays.copyOf(ips, size))
  }
}
