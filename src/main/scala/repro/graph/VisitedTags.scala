package repro.graph

/** Visited marks over vertex ids [0, n) that clear in O(1), as hnswlib's
  * `VisitedList` does: a vertex is marked when its tag equals the current
  * epoch, and [[reset]] starts a new epoch instead of zeroing the array.
  * The array is zeroed only when the epoch wraps to 0, the value every
  * fresh tag holds, once in 2³² resets.
  *
  * Not thread-safe: each user keeps one per thread (a `ThreadLocal`), so
  * that two users never clobber each other's marks on one thread.
  *
  * @param epoch the starting epoch; a test can start near the wrap
  */
private[graph] final class VisitedTags(private var epoch: Int = 0) {
  private var tags = new Array[Int](0)

  /** Unmarks every vertex of [0, n), growing the array if n needs it. */
  def reset(n: Int): Unit = {
    if (tags.length < n) tags = new Array[Int](n)
    epoch += 1
    if (epoch == 0) { java.util.Arrays.fill(tags, 0); epoch = 1 }
  }

  def isMarked(v: Int): Boolean = tags(v) == epoch

  def mark(v: Int): Unit = tags(v) = epoch

  /** Marks `v`; true iff it was not marked. */
  def visit(v: Int): Boolean =
    if (tags(v) == epoch) false else { tags(v) = epoch; true }
}
