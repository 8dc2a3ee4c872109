package repro.core

import org.scalatest.funsuite.AnyFunSuite
import Matching._
import scala.util.Random
import TestSupport.exhaustive

class MatchingSpec extends AnyFunSuite {

  test("empty edge set matches nothing") {
    assert(greedy(Nil).isEmpty)
  }

  test("single edge is taken") {
    assert(greedy(Seq(Edge(1, 2, 0.5))) == Seq(Edge(1, 2, 0.5)))
  }

  test("highest-weight edge wins a contended vertex") {
    val m = greedy(Seq(Edge(1, 10, 1.0), Edge(1, 11, 3.0), Edge(2, 10, 2.0)))
    assert(m.toSet == Set(Edge(1, 11, 3.0), Edge(2, 10, 2.0)))
  }

  test("no vertex is matched twice") {
    val rnd = new Random(3)
    val edges = for (u <- 0L until 20L; v <- 0L until 20L)
      yield Edge(u, 100 + v, rnd.nextDouble())
    val m = greedy(edges)
    assert(m.map(_.u).distinct.size == m.size)
    assert(m.map(_.v).distinct.size == m.size)
    assert(m.size == 20) // complete bipartite -> full matching
  }

  test("greedy is deterministic under ties") {
    val edges = Seq(Edge(2, 10, 1.0), Edge(1, 10, 1.0), Edge(1, 11, 1.0))
    assert(greedy(edges) == greedy(edges.reverse))
    assert(greedy(edges).head == Edge(1, 10, 1.0)) // tie -> smallest (u, v)
  }

  test("greedy achieves at least half the exhaustive optimum (random graphs)") {
    val rnd = new Random(11)
    for (_ <- 1 to 15) {
      val edges = Seq.fill(1 + rnd.nextInt(10))(
        Edge(rnd.nextInt(4).toLong, 100L + rnd.nextInt(4), rnd.nextDouble() * 10))
        .distinct
      val g = greedy(edges).map(_.w).sum
      val opt = exhaustive(edges).map(_.w).sum
      assert(g >= opt / 2 - 1e-9, s"greedy $g vs opt $opt on $edges")
      assert(g <= opt + 1e-9)
    }
  }

  test("greedy equals the optimum when weights are well separated") {
    // The paper relies on true pairs dominating: geometric weights make
    // greedy optimal.
    val edges = Seq(
      Edge(1, 11, 100.0), Edge(2, 12, 10.0), Edge(3, 13, 1.0),
      Edge(1, 12, 0.5), Edge(2, 11, 0.4))
    assert(greedy(edges).map(_.w).sum == exhaustive(edges).map(_.w).sum)
  }

  test("exhaustive solves the classic greedy-suboptimal case") {
    val edges = Seq(Edge(1, 10, 3.0), Edge(1, 11, 2.0), Edge(2, 10, 2.5))
    assert(greedy(edges).map(_.w).sum == 3.0)
    assert(exhaustive(edges).map(_.w).sum == 2.0 + 2.5)
  }
}
