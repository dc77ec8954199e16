package repro.graph

import org.scalatest.funsuite.AnyFunSuite

class VisitedTagsSpec extends AnyFunSuite {

  private def marked(t: VisitedTags, n: Int): Seq[Int] = (0 until n).filter(t.isMarked)

  test("reset unmarks every vertex, also when the epoch wraps to 0") {
    val t = new VisitedTags(epoch = -3) // two resets before the wrap
    t.reset(6); t.mark(1)
    assert(marked(t, 6) == Seq(1))
    t.reset(6); t.mark(2); t.mark(4)
    assert(marked(t, 6) == Seq(2, 4))
    t.reset(6) // epoch 0: every tag a fresh array holds, and vertex 1's stale tag is -2
    assert(marked(t, 6).isEmpty)
    assert(t.visit(5) && !t.visit(5))
    assert(marked(t, 6) == Seq(5))
    t.reset(6)
    assert(marked(t, 6).isEmpty)
  }

  test("one set of tags alternates between stores of different n") {
    val t = new VisitedTags
    for (round <- 0 until 3) {
      t.reset(10); (0 until 10 by 3).foreach(t.mark)
      assert(marked(t, 10) == Seq(0, 3, 6, 9), s"round $round")
      t.reset(4)
      assert(marked(t, 4).isEmpty, s"round $round")
      t.mark(3)
      t.reset(25) // grows the array
      assert(marked(t, 25).isEmpty, s"round $round")
      (20 until 25).foreach(t.mark)
    }
  }
}
