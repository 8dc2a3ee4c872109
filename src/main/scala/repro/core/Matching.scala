package repro.core

import scala.collection.mutable

/** Maximum-weight bipartite matching (paper §3.2).
  *
  * The paper adopts "a simple greedy heuristic, which links the pair with the
  * highest similarity at each step" — sort edges by descending weight and take
  * an edge whenever both endpoints are still free. Runs on the driver: by this
  * stage the data is one row per surviving candidate edge.
  */
object Matching {

  /** A weighted candidate edge between entity `u` (dataset E) and `v` (I). */
  final case class Edge(u: Long, v: Long, w: Double)

  /** Greedy maximum-weight matching. Deterministic: ties break on (u, v). */
  def greedy(edges: Seq[Edge]): Seq[Edge] = {
    val sorted = edges.sortBy(e => (-e.w, e.u, e.v))
    val usedU = mutable.Set.empty[Long]
    val usedV = mutable.Set.empty[Long]
    val out = mutable.ArrayBuffer.empty[Edge]
    for (e <- sorted if !usedU(e.u) && !usedV(e.v)) {
      usedU += e.u; usedV += e.v; out += e
    }
    out.toSeq
  }
}
