package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import Similarity._
import TestSupport.mutualPairs

/** In-core tests of the pairing function and per-window aggregation. The
  * pairing cases run on [[TestSupport.mutualPairs]], the oracle the kernel is
  * checked against below.
  */
class SimilarityScoreSpec extends AnyFunSuite {

  // Convenient cells along a line: each step is one level-14 cell eastward
  // at the equator (~2.44 km per cell).
  private def cellAt(step: Int): Long = Grid.pack(14, 8192 + step, 8192)
  private val cellKm = Grid.minDistanceKm(cellAt(0), cellAt(2)) // 1-cell gap
  private val R = 30.0

  private def cfg(pairing: Pairing = MnnWithMfn, useIdf: Boolean = true) =
    ScoreConfig(runawayKm = R, pairing = pairing, useIdf = useIdf)

  test("mutualPairs(nearest) on singletons pairs them") {
    val p = mutualPairs(IndexedSeq(cellAt(0)), IndexedSeq(cellAt(0)), nearest = true)
    assert(p == Seq((0, 0, 0.0)))
  }

  test("mutualPairs pairs each bin at most once, up to the smaller side's size") {
    val us = IndexedSeq(cellAt(0), cellAt(4), cellAt(8))
    val vs = IndexedSeq(cellAt(1), cellAt(5))
    val p = mutualPairs(us, vs, nearest = true)
    assert(p.size == 2)
    assert(p.map(_._1).distinct.size == 2 && p.map(_._2).distinct.size == 2)
  }

  test("mutualPairs(nearest) picks globally closest first (paper's N)") {
    // u0 is adjacent to v0; u1 is far from everything.
    val us = IndexedSeq(cellAt(0), cellAt(100))
    val vs = IndexedSeq(cellAt(1))
    val p = mutualPairs(us, vs, nearest = true)
    assert(p == Seq((0, 0, 0.0))) // adjacent cells -> distance 0
  }

  test("mutualPairs(furthest) picks globally furthest first (paper's N')") {
    val us = IndexedSeq(cellAt(0), cellAt(100))
    val vs = IndexedSeq(cellAt(1))
    val p = mutualPairs(us, vs, nearest = false)
    assert(p.size == 1 && p.head._1 == 1) // the far u bin
    assert(p.head._3 > 200) // ~99 cells * 2.44 km
  }

  test("empty sides yield no pairs and a zero window score") {
    assert(mutualPairs(IndexedSeq.empty, IndexedSeq(cellAt(0)), nearest = true).isEmpty)
    val ws = windowScore(IndexedSeq.empty, IndexedSeq(Bin(cellAt(0), 1.0)), cfg())
    assert(ws == WindowScore(0.0, 0L, 0L))
  }

  test("identical single bins score P=1 times idf") {
    val ws = windowScore(IndexedSeq(Bin(cellAt(0), 2.5)), IndexedSeq(Bin(cellAt(0), 3.0)), cfg())
    assert(math.abs(ws.raw - 2.5) < 1e-12) // min idf = 2.5, P = 1
    assert(ws.comparisons == 1 && ws.alibiPairs == 0)
  }

  test("idf flag off ignores the idf weights") {
    val ws = windowScore(IndexedSeq(Bin(cellAt(0), 2.5)), IndexedSeq(Bin(cellAt(0), 3.0)),
      cfg(useIdf = false))
    assert(math.abs(ws.raw - 1.0) < 1e-12)
  }

  test("comparisons counts the full cross product (the cost metric)") {
    val us = IndexedSeq.tabulate(3)(i => Bin(cellAt(i), 1.0))
    val vs = IndexedSeq.tabulate(4)(i => Bin(cellAt(i), 1.0))
    assert(windowScore(us, vs, cfg()).comparisons == 12)
  }

  test("paper's MFN example: MNN alone misses the alibi, MFN catches it") {
    // e1 has one bin b1; e2 has b2 at distance < R and b3 at distance > R.
    val b1 = cellAt(0)
    val nearSteps = (R / cellKm * 0.5).toInt  // ~ R/2 away
    val farSteps = (R / cellKm * 1.6).toInt   // ~ 1.6R away -> alibi
    val us = IndexedSeq(Bin(b1, 1.0))
    val vs = IndexedSeq(Bin(cellAt(nearSteps), 1.0), Bin(cellAt(farSteps), 1.0))

    val mnnOnly = windowScore(us, vs, cfg(MnnOnly))
    assert(mnnOnly.alibiPairs == 0, "MNN pairs the near bin and misses the alibi")
    assert(mnnOnly.raw > 0)

    val withMfn = windowScore(us, vs, cfg(MnnWithMfn))
    assert(withMfn.alibiPairs == 1, "MFN pass catches the far alibi bin")
    assert(withMfn.raw < mnnOnly.raw, "alibi contributes negatively")
  }

  test("MFN pass only adds negative (alibi) contributions") {
    // Two near bins on each side: MFN re-pairing is positive -> not added.
    val us = IndexedSeq(Bin(cellAt(0), 1.0), Bin(cellAt(1), 1.0))
    val vs = IndexedSeq(Bin(cellAt(0), 1.0), Bin(cellAt(1), 1.0))
    val a = windowScore(us, vs, cfg(MnnOnly))
    val b = windowScore(us, vs, cfg(MnnWithMfn))
    assert(math.abs(a.raw - b.raw) < 1e-12)
  }

  test("MFN does not double-count the single MNN pair (1x1 alibi)") {
    val farSteps = (R / cellKm * 1.6).toInt
    val us = IndexedSeq(Bin(cellAt(0), 1.0))
    val vs = IndexedSeq(Bin(cellAt(farSteps), 1.0))
    val mnn = windowScore(us, vs, cfg(MnnOnly))
    val mfn = windowScore(us, vs, cfg(MnnWithMfn))
    assert(mnn.raw < 0)
    assert(math.abs(mnn.raw - mfn.raw) < 1e-12, "same pair must not be counted twice")
    assert(mfn.alibiPairs == 1)
  }

  test("AllPairs counts every cross pair's proximity") {
    val us = IndexedSeq(Bin(cellAt(0), 1.0), Bin(cellAt(1), 1.0))
    val vs = IndexedSeq(Bin(cellAt(0), 1.0))
    val ap = windowScore(us, vs, cfg(AllPairs))
    val expected = Proximity.proximity(0.0, R) +
      Proximity.proximity(Grid.minDistanceKm(cellAt(1), cellAt(0)), R)
    assert(math.abs(ap.raw - expected) < 1e-12)
  }

  test("AllPairs over-counts relative to MNN when bins repeat (paper §3.1.2)") {
    val us = IndexedSeq.fill(3)(Bin(cellAt(0), 1.0))
    val vs = IndexedSeq.fill(3)(Bin(cellAt(0), 1.0))
    val ap = windowScore(us, vs, cfg(AllPairs))
    val mnn = windowScore(us, vs, cfg(MnnOnly))
    assert(ap.raw == 9.0 && mnn.raw == 3.0)
  }

  // A random window: 1-12 bins per side at mixed levels around one point,
  // with shared and repeated cells, equal-distance ties (cells mirrored
  // around a centre, adjacent cells at distance 0) and pairs beyond R and
  // 2R (a level-14 cell is ~2.4 km; offsets reach ~40 cells).
  private def randomWindow(rnd: Random): (IndexedSeq[Bin], IndexedSeq[Bin]) = {
    val centre = 8192
    def cell(level: Int, dx: Int, dy: Int): Long = {
      val shift = 14 - level
      Grid.pack(level, (centre + dx) >> shift, (centre + dy) >> shift)
    }
    def randomCell(): Long = {
      val level = 12 + rnd.nextInt(3)
      val dx = rnd.nextInt(81) - 40
      val dy = if (rnd.nextBoolean()) 0 else rnd.nextInt(21) - 10
      cell(level, dx, dy)
    }
    def randomIdf(): Double = if (rnd.nextInt(4) == 0) 1.0 else rnd.nextDouble() * 4
    val us = IndexedSeq.fill(1 + rnd.nextInt(12))(Bin(randomCell(), randomIdf()))
    val mirrored = us.map { b => // the mirror image of a u cell, at the same distance
      val l = Grid.levelOf(b.cell); val n = 1 << l
      Grid.pack(l, math.max(0, math.min(n - 1, 2 * (centre >> (14 - l)) - Grid.xOf(b.cell))),
        Grid.yOf(b.cell))
    }
    val vs = IndexedSeq.fill(1 + rnd.nextInt(12)) {
      val c = rnd.nextInt(4) match {
        case 0 => us(rnd.nextInt(us.length)).cell         // shared cell
        case 1 => mirrored(rnd.nextInt(mirrored.length))  // tie with a mirrored pair
        case _ => randomCell()
      }
      Bin(c, randomIdf())
    }
    (us, vs)
  }

  test("property: the primitive kernel equals the boxed oracle exactly") {
    val rnd = new Random(20261019L)
    val pairings = Seq(MnnWithMfn, MnnOnly, AllPairs)
    var checked = 0
    for (_ <- 1 to 1500) {
      val (us, vs) = randomWindow(rnd)
      for (pairing <- pairings; useIdf <- Seq(true, false)) {
        val c = cfg(pairing, useIdf)
        val got = windowScore(us, vs, c)
        val want = TestSupport.windowScore(us, vs, c)
        assert(got == want, s"$pairing idf=$useIdf us=$us vs=$vs")
        checked += 1
      }
    }
    assert(checked == 1500 * 6)
  }

  test("one kernel reused over shared arrays at non-zero offsets equals the oracle") {
    // As in a stage-3 task: one kernel scores window after window, each
    // side's bins read from one array per side. Other bins come first, so no
    // window starts at 0, and the windows alternate biggest and smallest
    // remaining, so the scratch arrays grow and then serve smaller pairs.
    val rnd = new Random(20261020L)
    val bySize = IndexedSeq.fill(400)(randomWindow(rnd)).sortBy { case (us, vs) => us.length * vs.length }
    val windows = bySize.indices.map(j =>
      if (j % 2 == 0) bySize(bySize.length - 1 - j / 2) else bySize(j / 2))
    val (padU, padV) = randomWindow(rnd)
    def packed(sides: IndexedSeq[IndexedSeq[Bin]]): (Array[Long], Array[Double], IndexedSeq[Int]) = {
      val all = sides.flatten
      (all.map(_.cell).toArray, all.map(_.idf).toArray, sides.scanLeft(0)(_ + _.length).tail)
    }
    val (uCells, uIdf, uFrom) = packed(padU +: windows.map(_._1))
    val (vCells, vIdf, vFrom) = packed(padV +: windows.map(_._2))
    for (pairing <- Seq(MnnWithMfn, MnnOnly, AllPairs); useIdf <- Seq(true, false)) {
      val c = cfg(pairing, useIdf)
      val kernel = new Kernel(c)
      for (((us, vs), w) <- windows.zipWithIndex) {
        kernel.score(uCells, uIdf, uFrom(w), us.length, vCells, vIdf, vFrom(w), vs.length)
        val want = TestSupport.windowScore(us, vs, c)
        assert((kernel.raw, kernel.alibis) == (want.raw, want.alibiPairs),
          s"$pairing idf=$useIdf window $w: us=$us vs=$vs")
      }
    }
  }

  test("windowScore is symmetric in its sides") {
    val us = IndexedSeq(Bin(cellAt(0), 1.5), Bin(cellAt(7), 0.5))
    val vs = IndexedSeq(Bin(cellAt(2), 2.0), Bin(cellAt(3), 1.0), Bin(cellAt(40), 0.7))
    val a = windowScore(us, vs, cfg())
    val b = windowScore(vs, us, cfg())
    assert(math.abs(a.raw - b.raw) < 1e-9)
    assert(a.comparisons == b.comparisons)
    assert(a.alibiPairs == b.alibiPairs)
  }
}
