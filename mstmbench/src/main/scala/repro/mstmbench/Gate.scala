package repro.mstmbench

import repro.graph.FusedIndex

/** Output checks. Every check returns the problems it found, empty when the
  * output is correct; the benchmark counts each checked output as one
  * attempted operation and each output with a problem as one failure.
  */
object Gate {

  /** A result list must be exactly `k` distinct ids in [0, n). */
  def checkResult(ids: Seq[Long], k: Int, n: Int): Seq[String] = {
    val problems = Seq.newBuilder[String]
    if (ids.length != k) problems += s"${ids.length} ids, expected $k"
    if (ids.distinct.length != ids.length) problems += s"duplicate ids in ${ids.mkString(",")}"
    ids.filter(id => id < 0 || id >= n).foreach(id => problems += s"id $id outside [0, $n)")
    problems.result()
  }

  /** Structure of the fused index (Algorithm 1, component ⑤): n vertices,
    * edges in range, no self-loops, every vertex reachable from the seed. */
  def checkIndex(index: FusedIndex, n: Int): Seq[String] = {
    val adj = index.adjacency
    if (adj.length != n) return Seq(s"${adj.length} vertices, expected $n")
    if (index.seedVertex < 0 || index.seedVertex >= n) return Seq(s"seed ${index.seedVertex} outside [0, $n)")
    val problems = Seq.newBuilder[String]
    var v = 0
    while (v < n) {
      val nbrs = adj(v)
      if (nbrs == null) problems += s"vertex $v has no adjacency list"
      else nbrs.foreach { u =>
        if (u == v) problems += s"self-loop at $v"
        else if (u < 0 || u >= n) problems += s"edge $v -> $u outside [0, $n)"
      }
      v += 1
    }
    val found = problems.result()
    if (found.nonEmpty) return found
    val seen = new Array[Boolean](n)
    val queue = new java.util.ArrayDeque[Int]()
    seen(index.seedVertex) = true
    queue.add(index.seedVertex)
    var reached = 1
    while (!queue.isEmpty) {
      adj(queue.poll()).foreach { u =>
        if (!seen(u)) { seen(u) = true; reached += 1; queue.add(u) }
      }
    }
    if (reached == n) Nil
    else Seq(s"${n - reached} vertices unreachable from seed ${index.seedVertex}, first ${seen.indexOf(false)}")
  }

  /** Seeds one corruption of each kind into well-formed outputs and returns
    * the names of those the gate failed to reject (empty = the gate works). */
  def selfTest(): Seq[String] = {
    val k = 10
    val n = 50
    val good = (0L until k.toLong).map(_ * 3)
    // A ring plus chords: connected, no self-loops.
    val adj = Array.tabulate(n)(v => Array((v + 1) % n, (v + 7) % n))
    val index = FusedIndex(adj, seedVertex = 0, weights = Array(0.5, 0.5))
    require(checkResult(good, k, n).isEmpty && checkIndex(index, n).isEmpty,
      "gate rejects well-formed outputs")

    def withEdges(v: Int, nbrs: Array[Int]) = index.copy(adjacency = adj.updated(v, nbrs))
    val unreachable = 33
    val cut = index.copy(adjacency = adj.map(_.filter(_ != unreachable)))
    val corruptions: Seq[(String, Seq[String])] = Seq(
      "duplicate id" -> checkResult(good.updated(4, good(3)), k, n),
      "out-of-range id" -> checkResult(good.updated(9, n.toLong), k, n),
      "negative id" -> checkResult(good.updated(0, -1L), k, n),
      "short list" -> checkResult(good.take(k - 1), k, n),
      "self-loop" -> checkIndex(withEdges(5, Array(5, 6)), n),
      "edge out of range" -> checkIndex(withEdges(5, Array(6, n)), n),
      "missing vertex" -> checkIndex(index.copy(adjacency = adj.init), n),
      "unreachable vertex" -> checkIndex(cut, n),
    )
    corruptions.collect { case (name, problems) if problems.isEmpty => name }
  }
}
