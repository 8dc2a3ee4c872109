package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ProximitySpec extends AnyFunSuite {

  test("runaway distance is window width times speed") {
    assert(Proximity.runawayKm(900, 2.0) == 30.0)   // 15 min at 2 km/min
    assert(Proximity.runawayKm(300, 2.0) == 10.0)
    assert(Proximity.runawayKm(3600, 1.0) == 60.0)
  }

  test("same cell (d=0) gives proximity 1 — the maximum") {
    assert(Proximity.proximity(0.0, 30.0) == 1.0)
  }

  test("d = R gives proximity 0 (neutral point)") {
    assert(math.abs(Proximity.proximity(30.0, 30.0)) < 1e-12)
  }

  test("d in (0, R) gives proximity in (0, 1), decreasing") {
    val p1 = Proximity.proximity(5.0, 30.0)
    val p2 = Proximity.proximity(15.0, 30.0)
    val p3 = Proximity.proximity(29.0, 30.0)
    assert(p1 > p2 && p2 > p3)
    assert(p1 < 1.0 && p3 > 0.0)
  }

  test("d in (R, 2R) is negative — alibi counter-evidence") {
    val p = Proximity.proximity(45.0, 30.0)
    assert(p < 0 && p > Proximity.DefaultFloor)
  }

  test("slightly past R is only slightly negative (tolerates location noise)") {
    assert(Proximity.proximity(30.3, 30.0) > -0.05)
  }

  test("d >= 2R clamps to the floor instead of -infinity (DESIGN S3)") {
    assert(Proximity.proximity(60.0, 30.0) == Proximity.DefaultFloor)
    assert(Proximity.proximity(1e9, 30.0) == Proximity.DefaultFloor)
    assert(Proximity.proximity(60.0, 30.0, floor = -5.0) == -5.0)
  }

  test("proximity is monotone decreasing and smooth away from the clamp") {
    val ds = (0 to 600).map(_ * 0.1)
    val ps = ds.map(Proximity.proximity(_, 30.0))
    ps.sliding(2).foreach { case Seq(a, b) => assert(b <= a + 1e-12) }
    // steps stay small until the near-2R blow-up region (the paper's
    // "continuous ... steep" decrease); past ~1.97R the log diverges and the
    // floor clamp takes over by design
    ps.zip(ps.drop(1)).take(590).foreach { case (a, b) => assert(a - b < 1.5) }
    assert(Proximity.proximity(59.7, 30.0) > Proximity.DefaultFloor)
  }

  test("exact midpoint value: d = R/2 -> log2(1.5)") {
    assert(math.abs(Proximity.proximity(15.0, 30.0) - math.log(1.5) / math.log(2)) < 1e-12)
  }

  test("rejects non-positive runaway") {
    intercept[IllegalArgumentException](Proximity.proximity(1.0, 0.0))
  }
}
