package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import TestSupport.exhaustive

/** Randomized properties over the pure core (seeded, deterministic). The
  * scalatest+scalacheck bridge is not available offline, so these use seeded
  * [[Random]] loops here and raw ScalaCheck properties in [[CoreProps]].
  */
class CorePropertySpec extends AnyFunSuite {

  private def trials(n: Int)(body: Random => Unit): Unit = {
    val rnd = new Random(20260814L)
    (1 to n).foreach(_ => body(rnd))
  }

  private def lat(r: Random) = r.nextDouble() * 178 - 89
  private def lon(r: Random) = r.nextDouble() * 359.99 - 180

  test("property: cellOf bounds always contain the point") {
    trials(300) { r =>
      val (la, lo, lvl) = (lat(r), lon(r), 2 + r.nextInt(19))
      val (la0, la1, lo0, lo1) = Grid.bounds(Grid.cellOf(la, lo, lvl))
      assert(la0 <= la && la <= la1)
      assert(lo0 <= lo && lo <= lo1)
    }
  }

  test("property: ancestorAt equals direct coarse binning") {
    trials(300) { r =>
      val (la, lo) = (lat(r), lon(r))
      val lvl = 6 + r.nextInt(15)
      val drop = 1 + r.nextInt(5)
      assert(Grid.ancestorAt(Grid.cellOf(la, lo, lvl), lvl - drop) ==
        Grid.cellOf(la, lo, lvl - drop))
    }
  }

  test("property: minDistance lower-bounds the haversine of contained points") {
    trials(300) { r =>
      val (la1, lo1, la2, lo2) = (lat(r), lon(r), lat(r), lon(r))
      val lvl = 6 + r.nextInt(11)
      val d = Grid.minDistanceKm(Grid.cellOf(la1, lo1, lvl), Grid.cellOf(la2, lo2, lvl))
      assert(d <= Grid.haversineKm(la1, lo1, la2, lo2) + 1e-6)
    }
  }

  test("property: proximity bounded by (floor, 1] and sign encodes alibi rule") {
    trials(500) { r =>
      val d = r.nextDouble() * 1e4
      val rw = 1.0 + r.nextDouble() * 200
      val p = Proximity.proximity(d, rw)
      assert(p <= 1.0 && p >= Proximity.DefaultFloor)
      if (d < rw) assert(p > -1e-12)
      if (d > rw) assert(p < 1e-12)
    }
  }

  test("property: lambertW identity w e^w = x") {
    trials(500) { r =>
      val x = r.nextDouble() * 1e6
      val w = Lsh.lambertW(x)
      assert(math.abs(w * math.exp(w) - x) <= 1e-8 * math.max(1.0, x))
    }
  }

  test("property: bandsFor covers the signature with positive rows") {
    trials(500) { r =>
      val s = 1 + r.nextInt(500)
      val t = 0.05 + r.nextDouble() * 0.95
      val (b, rr) = Lsh.bandsFor(s, t)
      assert(b >= 1 && rr >= 1 && b * rr >= s)
    }
  }

  test("property: greedy matching valid and never beats exhaustive") {
    trials(60) { r =>
      val edges = Seq.fill(1 + r.nextInt(8))(
        Matching.Edge(r.nextInt(4).toLong, 10L + r.nextInt(4), 0.01 + r.nextDouble() * 10))
        .distinct
      val m = Matching.greedy(edges)
      assert(m.map(_.u).distinct.size == m.size)
      assert(m.map(_.v).distinct.size == m.size)
      assert(m.map(_.w).sum <= exhaustive(edges).map(_.w).sum + 1e-9)
    }
  }

  test("property: windowScore symmetric under side swap") {
    trials(150) { r =>
      def bins(base: Int): IndexedSeq[Similarity.Bin] =
        IndexedSeq.fill(1 + r.nextInt(4))(
          Similarity.Bin(Grid.pack(14, base + r.nextInt(4000), 8192), r.nextDouble() * 5))
      val (ub, vb) = (bins(2000), bins(2100))
      val cfg = Similarity.ScoreConfig(runawayKm = 30.0)
      val x = Similarity.windowScore(ub, vb, cfg)
      val y = Similarity.windowScore(vb, ub, cfg)
      assert(math.abs(x.raw - y.raw) < 1e-6, s"$ub vs $vb")
      assert(x.comparisons == y.comparisons)
    }
  }

  test("property: GMM stop threshold lies within the weight range") {
    trials(60) { r =>
      val ws = Array.fill(8 + r.nextInt(40))(r.nextDouble() * 100)
      val s = Gmm.stopThreshold(ws)
      assert(s >= ws.min - 1e-9 && s <= ws.max + 1e-9)
    }
  }

  test("property: prf precision and recall stay in [0,1]") {
    trials(100) { r =>
      val truth = (0 until r.nextInt(10)).map(i => i.toLong -> (100L + i)).toMap
      val links = Seq.fill(r.nextInt(10))((r.nextInt(12).toLong, 100L + r.nextInt(12)))
        .distinctBy(_._1).distinctBy(_._2)
      val m = Metrics.prf(links, truth)
      assert(m.precision >= 0 && m.precision <= 1)
      assert(m.recall >= 0 && m.recall <= 1)
      assert(m.f1 >= 0 && m.f1 <= 1)
      assert(m.tp + m.fp == links.size)
      assert(m.tp + m.fn == truth.size)
    }
  }
}
