package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class GmmSpec extends AnyFunSuite {

  private def sample(rnd: Random, n: Int, mu: Double, sigma: Double): Array[Double] =
    Array.fill(n)(mu + rnd.nextGaussian() * sigma)

  test("erf: known values") {
    assert(math.abs(Gmm.erf(0.0)) < 1e-9)
    assert(math.abs(Gmm.erf(1.0) - 0.8427007929) < 1e-6)
    assert(math.abs(Gmm.erf(-1.0) + 0.8427007929) < 1e-6)
    assert(Gmm.erf(4.0) > 0.99999)
  }

  test("normCdf: median, symmetry, tails") {
    assert(math.abs(Gmm.normCdf(5.0, 5.0, 2.0) - 0.5) < 1e-9)
    val lo = Gmm.normCdf(3.0, 5.0, 2.0)
    val hi = Gmm.normCdf(7.0, 5.0, 2.0)
    assert(math.abs(lo + hi - 1.0) < 1e-6)
    assert(Gmm.normCdf(-100, 0, 1) < 1e-9)
    assert(Gmm.normCdf(100, 0, 1) > 1 - 1e-9)
  }

  test("EM recovers a well-separated two-component mixture") {
    val rnd = new Random(5)
    val xs = sample(rnd, 400, 0.0, 1.0) ++ sample(rnd, 400, 10.0, 1.0)
    val g = Gmm.fit(xs)
    assert(math.abs(g.mu1 - 0.0) < 0.5, s"mu1=${g.mu1}")
    assert(math.abs(g.mu2 - 10.0) < 0.5, s"mu2=${g.mu2}")
    assert(g.sigma1 > 0.5 && g.sigma1 < 2.0)
    assert(g.sigma2 > 0.5 && g.sigma2 < 2.0)
    assert(math.abs(g.c1 - 0.5) < 0.1)
  }

  test("EM recovers unequal component weights") {
    val rnd = new Random(6)
    val xs = sample(rnd, 900, 0.0, 1.0) ++ sample(rnd, 100, 8.0, 0.5)
    val g = Gmm.fit(xs)
    assert(g.c1 > 0.8, s"c1=${g.c1}")
    assert(math.abs(g.mu2 - 8.0) < 1.0)
  }

  test("components come out ordered mu1 <= mu2") {
    val rnd = new Random(7)
    val xs = sample(rnd, 100, 50.0, 2.0) ++ sample(rnd, 100, 10.0, 2.0)
    val g = Gmm.fit(xs)
    assert(g.mu1 <= g.mu2)
  }

  test("fit survives degenerate all-equal input") {
    val g = Gmm.fit(Array.fill(10)(3.0))
    assert(g.mu1 == 3.0 && g.mu2 == 3.0)
    assert(g.sigma1 > 0 && g.sigma2 > 0)
  }

  test("expectedPrf: recall falls and precision rises with the threshold") {
    val g = Gmm.Gmm2(0.5, 0.0, 1.0, 0.5, 10.0, 1.0)
    val (pLo, rLo, _) = Gmm.expectedPrf(g, -5.0)
    val (pMid, rMid, _) = Gmm.expectedPrf(g, 5.0)
    val (pHi, rHi, _) = Gmm.expectedPrf(g, 9.0)
    assert(rLo > rMid && rMid > rHi)
    assert(pLo < pMid && pMid <= pHi + 1e-9)
    assert(math.abs(rLo - 0.5) < 1e-6) // all of c2 recalled
    assert(math.abs(pLo - 0.5) < 1e-6) // ... but all of c1 leaks in
  }

  test("selected threshold separates well-separated components") {
    val g = Gmm.Gmm2(0.5, 0.0, 1.0, 0.5, 10.0, 1.0)
    val s = Gmm.selectThreshold(g, -3.0, 13.0)
    assert(s > 2.0 && s < 8.0, s"threshold $s should sit between the components")
    val (p, r, f1) = Gmm.expectedPrf(g, s)
    assert(p > 0.95 && r > 0.45 && f1 > 0.6)
  }

  test("stopThreshold end-to-end on a mixed weight sample") {
    val rnd = new Random(8)
    val weights = sample(rnd, 200, 1.0, 0.3) ++ sample(rnd, 200, 6.0, 0.8)
    val s = Gmm.stopThreshold(weights)
    assert(s > 1.5 && s < 5.5, s"threshold $s")
    // thresholding keeps mostly the high component
    val kept = weights.filter(_ >= s)
    assert(kept.count(_ > 4.0) > 180)
    assert(kept.count(_ < 2.0) < 20)
  }

  test("stopThreshold keeps everything for tiny inputs") {
    assert(Gmm.stopThreshold(Array(1.0, 2.0, 3.0)) == Double.NegativeInfinity)
    assert(Gmm.stopThreshold(Array.empty[Double]) == Double.NegativeInfinity)
  }

  test("separation: Ashman's D of mu 0 and 2 with sigma 1 and 1 is 2") {
    val g = Gmm.Gmm2(0.5, 0.0, 1.0, 0.5, 2.0, 1.0)
    assert(math.abs(Gmm.separation(g) - 2.0) < 1e-12)
  }

  test("selectThreshold handles degenerate range") {
    val g = Gmm.Gmm2(0.5, 1.0, 0.1, 0.5, 1.0, 0.1)
    assert(Gmm.selectThreshold(g, 1.0, 1.0) == Double.NegativeInfinity)
  }

  test("fit rejects fewer than two points") {
    intercept[IllegalArgumentException](Gmm.fit(Array(1.0)))
  }
}
