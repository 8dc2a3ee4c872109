package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class GridSpec extends AnyFunSuite {

  test("property: minDistance equals the tuple-based oracle exactly") {
    // Mixed levels, cells anywhere (so pairs straddle the antimeridian),
    // plus pairs forced to the antimeridian columns and to the polar rows.
    val rnd = new Random(20261019L)
    def anyCell(level: Int, x: Int => Int, y: Int => Int): Long = {
      val n = 1 << level
      Grid.pack(level, x(n), y(n))
    }
    val edge = (n: Int) => if (rnd.nextBoolean()) rnd.nextInt(math.min(n, 3)) else n - 1 - rnd.nextInt(math.min(n, 3))
    val uniform = (n: Int) => rnd.nextInt(n)
    for (trial <- 1 to 20000) {
      val (la, lb) = (rnd.nextInt(21), rnd.nextInt(21))
      val (x, y) = trial % 3 match {
        case 0 => (uniform, uniform) // anywhere
        case 1 => (edge, uniform)    // antimeridian wrap
        case _ => (uniform, edge)    // near the poles
      }
      val a = anyCell(la, x, y)
      val b = if (trial % 7 == 0) Grid.ancestorAt(a, math.min(la, lb)) else anyCell(lb, x, y)
      assert(Grid.minDistanceKm(a, b) == TestSupport.minDistanceKm(a, b), s"cells $a, $b")
    }
  }

  test("pack/unpack round-trips") {
    for (level <- Seq(0, 1, 4, 12, 14, 20, Grid.MaxLevel)) {
      val n = 1 << level
      for ((x, y) <- Seq((0, 0), (n - 1, n - 1), (n / 2, n / 3))) {
        val c = Grid.pack(level, x, y)
        assert(Grid.levelOf(c) == level)
        assert(Grid.xOf(c) == x)
        assert(Grid.yOf(c) == y)
      }
    }
  }

  test("pack rejects out-of-range cells") {
    intercept[IllegalArgumentException](Grid.pack(2, 4, 0))
    intercept[IllegalArgumentException](Grid.pack(2, 0, -1))
    intercept[IllegalArgumentException](Grid.pack(Grid.MaxLevel + 1, 0, 0))
  }

  test("cell ids are non-negative (usable as DataFrame keys)") {
    for (level <- 0 to Grid.MaxLevel by 4)
      assert(Grid.cellOf(89.9, 179.9, level) >= 0)
  }

  test("cellOf at level 0 is the single global cell") {
    assert(Grid.cellOf(0, 0, 0) == Grid.cellOf(89.0, -179.0, 0))
  }

  test("cellOf level 1 quadrants") {
    assert(Grid.xOf(Grid.cellOf(10, 10, 1)) == 1)   // east
    assert(Grid.yOf(Grid.cellOf(10, 10, 1)) == 1)   // north
    assert(Grid.xOf(Grid.cellOf(-10, -10, 1)) == 0) // west
    assert(Grid.yOf(Grid.cellOf(-10, -10, 1)) == 0) // south
  }

  test("longitude 180 wraps to the -180 column") {
    assert(Grid.cellOf(0, 180.0, 8) == Grid.cellOf(0, -180.0, 8))
  }

  test("a non-finite longitude is rejected; finite ones still wrap") {
    // NaN.toInt == 0 would otherwise put the point in the lon -180 column.
    for (lon <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity))
      intercept[IllegalArgumentException](Grid.cellOf(10.0, lon, 8))
    val west = Grid.cellOf(10.0, -180.0, 8)
    assert(Grid.xOf(west) == 0)
    assert(Grid.cellOf(10.0, 180.0, 8) == west && Grid.cellOf(10.0, 540.0, 8) == west)
  }

  test("latitude 90 clamps into the top row") {
    assert(Grid.yOf(Grid.cellOf(90.0, 0, 8)) == 255)
  }

  test("nearby points share a cell at coarse level but not at fine level") {
    val (lat1, lon1) = (37.7749, -122.4194)
    val (lat2, lon2) = (37.8049, -122.2711) // ~13 km away (Oakland)
    assert(Grid.cellOf(lat1, lon1, 6) == Grid.cellOf(lat2, lon2, 6))
    assert(Grid.cellOf(lat1, lon1, 16) != Grid.cellOf(lat2, lon2, 16))
  }

  test("parent relationship is consistent with direct coarse binning") {
    val c14 = Grid.cellOf(48.8566, 2.3522, 14)
    assert(Grid.parent(c14) == Grid.cellOf(48.8566, 2.3522, 13))
    assert(Grid.ancestorAt(c14, 10) == Grid.cellOf(48.8566, 2.3522, 10))
    assert(Grid.ancestorAt(c14, 14) == c14)
  }

  test("parent of level-0 cell is itself") {
    val c0 = Grid.cellOf(0, 0, 0)
    assert(Grid.parent(c0) == c0)
  }

  test("bounds contain the generating point; center lies within bounds") {
    for ((lat, lon) <- Seq((37.77, -122.42), (-33.87, 151.21), (0.0, 0.0), (89.0, 179.0))) {
      val c = Grid.cellOf(lat, lon, 12)
      val (la0, la1, lo0, lo1) = Grid.bounds(c)
      assert(la0 <= lat && lat <= la1)
      assert(lo0 <= lon + 1e-9 || lo1 >= lon) // lon in [lo0, lo1]
      val (cla, clo) = Grid.center(c)
      assert(la0 < cla && cla < la1 && lo0 < clo && clo < lo1)
    }
  }

  test("haversine: known city distances within 1%") {
    // London -> Paris ~343.5 km
    assert(math.abs(Grid.haversineKm(51.5074, -0.1278, 48.8566, 2.3522) - 343.5) < 4)
    // New York -> Los Angeles ~3936 km
    assert(math.abs(Grid.haversineKm(40.7128, -74.0060, 34.0522, -118.2437) - 3936) < 40)
  }

  test("haversine is symmetric and zero at identity") {
    assert(Grid.haversineKm(10, 20, 10, 20) == 0.0)
    val d1 = Grid.haversineKm(10, 20, -30, 140)
    val d2 = Grid.haversineKm(-30, 140, 10, 20)
    assert(math.abs(d1 - d2) < 1e-9)
  }

  test("minDistance of a cell to itself is zero") {
    assert(Grid.minDistanceKm(Grid.cellOf(37.77, -122.42, 14), Grid.cellOf(37.77, -122.42, 14)) == 0.0)
  }

  test("minDistance of adjacent cells is zero (shared edge)") {
    val a = Grid.pack(10, 100, 200)
    val b = Grid.pack(10, 101, 200)
    assert(Grid.minDistanceKm(a, b) == 0.0)
  }

  test("minDistance is symmetric") {
    val a = Grid.cellOf(37.77, -122.42, 14)
    val b = Grid.cellOf(34.05, -118.24, 14)
    assert(math.abs(Grid.minDistanceKm(a, b) - Grid.minDistanceKm(b, a)) < 1e-9)
  }

  test("minDistance is a lower bound on the point distance of cell members") {
    val pts = Seq((37.77, -122.42), (37.90, -122.30), (34.05, -118.24), (36.0, -120.0))
    for ((p1, p2) <- pts.combinations(2).map(s => (s(0), s(1)))) {
      val c1 = Grid.cellOf(p1._1, p1._2, 14)
      val c2 = Grid.cellOf(p2._1, p2._2, 14)
      val dCells = Grid.minDistanceKm(c1, c2)
      val dPts = Grid.haversineKm(p1._1, p1._2, p2._1, p2._2)
      assert(dCells <= dPts + 1e-9, s"$p1 $p2")
    }
  }

  test("minDistance approximates the point distance for distant small cells") {
    val c1 = Grid.cellOf(51.5074, -0.1278, 16)
    val c2 = Grid.cellOf(48.8566, 2.3522, 16)
    val d = Grid.minDistanceKm(c1, c2)
    assert(d > 330 && d < 345) // within one cell diagonal of 343.5
  }

  test("minDistance handles the antimeridian (wrap-around)") {
    val west = Grid.cellOf(0.0, 179.5, 10)  // just west of the antimeridian
    val east = Grid.cellOf(0.0, -179.5, 10) // just east of it
    val d = Grid.minDistanceKm(west, east)
    // going the short way: ~0.7 degrees of gap minus cell widths -> < 80 km;
    // a non-wrapping implementation would report ~39,700 km
    assert(d < 120, s"wrap-around distance was $d km")
  }

  test("finer cells nest within their ancestor's bounds") {
    val c16 = Grid.cellOf(40.7128, -74.0060, 16)
    val c10 = Grid.ancestorAt(c16, 10)
    val (la0, la1, lo0, lo1) = Grid.bounds(c10)
    val (fla0, fla1, flo0, flo1) = Grid.bounds(c16)
    assert(la0 <= fla0 && fla1 <= la1 && lo0 <= flo0 && flo1 <= lo1)
  }
}
