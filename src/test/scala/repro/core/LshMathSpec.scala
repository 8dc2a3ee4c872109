package repro.core

import org.scalatest.funsuite.AnyFunSuite
import TestSupport.signatureSimilarity

/** Pure-math LSH tests: Lambert W, band sizing, signature similarity. */
class LshMathSpec extends AnyFunSuite {

  test("lambertW satisfies w * e^w = x across magnitudes") {
    for (x <- Seq(0.0, 1e-6, 0.1, 0.5, 1.0, math.E, 10.0, 100.0, 1e4, 1e8)) {
      val w = Lsh.lambertW(x)
      assert(math.abs(w * math.exp(w) - x) <= 1e-9 * math.max(1.0, x), s"x=$x w=$w")
    }
  }

  test("lambertW known values") {
    assert(Lsh.lambertW(0.0) == 0.0)
    assert(math.abs(Lsh.lambertW(math.E) - 1.0) < 1e-12)
    assert(math.abs(Lsh.lambertW(2 * math.E * math.E) - 2.0) < 1e-12)
  }

  test("lambertW rejects negative input (not needed for t <= 1)") {
    intercept[IllegalArgumentException](Lsh.lambertW(-0.1))
  }

  test("bandsFor: t=1 puts the whole signature in one band") {
    val (b, r) = Lsh.bandsFor(24, 1.0)
    assert(b == 1 && r == 24)
  }

  test("bandsFor: lower thresholds give more bands (more permissive)") {
    val bs = Seq(0.9, 0.6, 0.3, 0.1).map(t => Lsh.bandsFor(48, t)._1)
    bs.sliding(2).foreach { case Seq(a, c) => assert(a <= c, s"bands not monotone: $bs") }
    assert(bs.last > bs.head)
  }

  test("bandsFor: bands and rows cover the signature") {
    for (s <- Seq(4, 7, 24, 48, 97); t <- Seq(0.2, 0.5, 0.6, 0.8)) {
      val (b, r) = Lsh.bandsFor(s, t)
      assert(b * r >= s, s"s=$s t=$t b=$b r=$r")
      assert((b - 1) * r < s, s"no empty trailing bands: s=$s t=$t b=$b r=$r")
    }
  }

  test("bandsFor approximates the paper's threshold identity t=(1/b)^(r/s)... within tolerance") {
    // With b real-valued, t = (1/b)^(b/s) exactly; integer rounding stays close.
    for (s <- Seq(24, 48, 96); t <- Seq(0.4, 0.6, 0.8)) {
      val (b, r) = Lsh.bandsFor(s, t)
      val implied = math.pow(1.0 / b, 1.0 / r)
      assert(math.abs(implied - t) < 0.25, s"s=$s t=$t implied=$implied (b=$b r=$r)")
    }
  }

  test("S-curve: pair above threshold is much likelier to collide than pair far below") {
    def collideProb(sim: Double, b: Int, r: Int): Double =
      1 - math.pow(1 - math.pow(sim, r), b)
    val (b, r) = Lsh.bandsFor(48, 0.6)
    assert(collideProb(0.8, b, r) > 0.9)
    assert(collideProb(0.2, b, r) < 0.35)
    assert(collideProb(0.8, b, r) > 3 * collideProb(0.2, b, r))
  }

  test("signatureSimilarity counts aligned matches over signature length") {
    val a = Map(0L -> 10L, 1L -> 11L, 2L -> 12L)
    val b = Map(0L -> 10L, 1L -> 99L, 3L -> 12L)
    assert(signatureSimilarity(a, b, 4) == 0.25) // only position 0 matches
    assert(signatureSimilarity(a, a, 4) == 0.75) // 3 of 4 positions filled
    assert(signatureSimilarity(Map.empty, b, 4) == 0.0)
  }

  test("LshConfig validates its parameters") {
    intercept[IllegalArgumentException](Lsh.LshConfig(t = 0.0))
    intercept[IllegalArgumentException](Lsh.LshConfig(t = 1.5))
    intercept[IllegalArgumentException](Lsh.LshConfig(stepWindows = 0))
  }
}
