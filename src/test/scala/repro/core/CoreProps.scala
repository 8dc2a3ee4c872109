package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import TestSupport.signatureSimilarity

/** Raw ScalaCheck properties (the scalatest bridge is unavailable offline,
  * so these run under ScalaCheck's own sbt test framework).
  */
object CoreProps extends Properties("core") {

  private val genLat = Gen.choose(-89.0, 89.0)
  private val genLon = Gen.choose(-180.0, 179.999)

  property("grid.packRoundTrip") = Prop.forAll(Gen.choose(0, 20)) { level =>
    val n = 1 << level
    Prop.forAll(Gen.choose(0, n - 1), Gen.choose(0, n - 1)) { (x, y) =>
      val c = Grid.pack(level, x, y)
      Grid.levelOf(c) == level && Grid.xOf(c) == x && Grid.yOf(c) == y
    }
  }

  property("grid.cellNonNegative") = Prop.forAll(genLat, genLon, Gen.choose(0, 20)) {
    (la, lo, lvl) => Grid.cellOf(la, lo, lvl) >= 0
  }

  property("grid.haversineSymmetric") = Prop.forAll(genLat, genLon, genLat, genLon) {
    (a, b, c, d) => math.abs(Grid.haversineKm(a, b, c, d) - Grid.haversineKm(c, d, a, b)) < 1e-9
  }

  property("grid.haversineTriangleSane") = Prop.forAll(genLat, genLon, genLat, genLon) {
    (a, b, c, d) =>
      val dist = Grid.haversineKm(a, b, c, d)
      dist >= 0 && dist <= math.Pi * Grid.EarthRadiusKm + 1e-6
  }

  property("proximity.maxAtZero") = Prop.forAll(Gen.choose(0.1, 500.0)) { r =>
    Proximity.proximity(0.0, r) == 1.0
  }

  property("proximity.monotoneInDistance") =
    Prop.forAll(Gen.choose(0.0, 500.0), Gen.choose(0.0, 500.0), Gen.choose(1.0, 100.0)) {
      (d1, d2, r) =>
        val (lo, hi) = (math.min(d1, d2), math.max(d1, d2))
        Proximity.proximity(hi, r) <= Proximity.proximity(lo, r) + 1e-12
    }

  property("gmm.cdfMonotone") =
    Prop.forAll(Gen.choose(-50.0, 50.0), Gen.choose(-50.0, 50.0), Gen.choose(0.1, 10.0)) {
      (x1, x2, s) =>
        val (lo, hi) = (math.min(x1, x2), math.max(x1, x2))
        Gmm.normCdf(lo, 0.0, s) <= Gmm.normCdf(hi, 0.0, s) + 1e-12
    }

  property("lsh.signatureSimilarityBounded") =
    Prop.forAll(Gen.mapOf(Gen.zip(Gen.choose(0L, 20L), Gen.choose(0L, 5L))),
                Gen.mapOf(Gen.zip(Gen.choose(0L, 20L), Gen.choose(0L, 5L)))) { (a, b) =>
      val s = signatureSimilarity(a, b, 21)
      s >= 0.0 && s <= 1.0
    }
}
