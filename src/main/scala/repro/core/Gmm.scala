package repro.core

/** Automatic linkage stop threshold (paper §3.2, Fig. 2).
  *
  * After the full matching, the selected edge weights are modelled as a
  * 2-component 1-D Gaussian mixture: the lower-mean component m1 models false
  * positive links, the higher-mean m2 true positives. For a threshold `s`:
  *
  * {{{
  *   R(s) = c2 * (1 - F_m2(s))
  *   P(s) = R(s) / (R(s) + c1 * (1 - F_m1(s)))
  *   F1(s) = 2 P R / (P + R)
  * }}}
  *
  * and the stop threshold is the `s` maximizing the expected F1 (the paper's
  * `argmin` is a typo — its own Fig. 2/6 thresholds sit between the two
  * components, which is where F1 is maximized, not minimized).
  *
  * The EM fit is implemented from scratch (deterministic quantile init, fixed
  * iteration budget, variance floor) — no external ML dependency.
  */
object Gmm {

  /** A fitted 2-component mixture with c1+c2 = 1 and mu1 <= mu2. */
  final case class Gmm2(c1: Double, mu1: Double, sigma1: Double,
                        c2: Double, mu2: Double, sigma2: Double) {
    require(mu1 <= mu2, "components must be ordered by mean")
  }

  private val MinSigmaRatio = 1e-4
  private val EmIters = 200     // iterations of fit
  private val GridPoints = 1024 // thresholds selectThreshold tries

  /** Standard normal CDF via the Abramowitz–Stegun erf approximation
    * (|error| < 1.5e-7 — far below what threshold selection needs).
    */
  def normCdf(x: Double, mu: Double, sigma: Double): Double = {
    val z = (x - mu) / (sigma * math.sqrt(2.0))
    0.5 * (1.0 + erf(z))
  }

  def erf(x: Double): Double = {
    val t = 1.0 / (1.0 + 0.3275911 * math.abs(x))
    val y = 1.0 - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t -
      0.284496736) * t + 0.254829592) * t * math.exp(-x * x)
    if (x >= 0) y else -y
  }

  private def pdf(x: Double, mu: Double, sigma: Double): Double = {
    val z = (x - mu) / sigma
    math.exp(-0.5 * z * z) / (sigma * math.sqrt(2 * math.Pi))
  }

  /** Fit by EM, 200 iterations. Components start, deterministically, at the
    * 25th and 75th percentiles with half the sample standard deviation each.
    */
  def fit(xs: Array[Double]): Gmm2 = {
    require(xs.length >= 2, "need at least two points to fit a mixture")
    val sorted = xs.sorted
    val mean = xs.sum / xs.length
    val sd0 = math.max(math.sqrt(xs.map(x => (x - mean) * (x - mean)).sum / xs.length), 1e-12)
    val span = math.max(sorted.last - sorted.head, 1e-12)
    val sigmaFloor = span * MinSigmaRatio

    var c1 = 0.5; var c2 = 0.5
    var mu1 = sorted(((xs.length - 1) * 0.25).toInt)
    var mu2 = sorted(((xs.length - 1) * 0.75).toInt)
    if (mu2 - mu1 < sigmaFloor) { mu1 = sorted.head; mu2 = sorted.last }
    var s1 = math.max(sd0 / 2, sigmaFloor); var s2 = s1

    var it = 0
    while (it < EmIters) {
      // E-step: responsibilities of component 1.
      var n1 = 0.0; var sum1 = 0.0; var sum2 = 0.0; var ss1 = 0.0; var ss2 = 0.0
      var k = 0
      while (k < xs.length) {
        val x = xs(k)
        val p1 = c1 * pdf(x, mu1, s1); val p2 = c2 * pdf(x, mu2, s2)
        val r1 = if (p1 + p2 <= 0) 0.5 else p1 / (p1 + p2)
        n1 += r1; sum1 += r1 * x; sum2 += (1 - r1) * x
        ss1 += r1 * (x - mu1) * (x - mu1); ss2 += (1 - r1) * (x - mu2) * (x - mu2)
        k += 1
      }
      val n2 = xs.length - n1
      // M-step with degeneracy guards.
      if (n1 > 1e-9 && n2 > 1e-9) {
        c1 = n1 / xs.length; c2 = 1 - c1
        mu1 = sum1 / n1; mu2 = sum2 / n2
        s1 = math.max(math.sqrt(ss1 / n1), sigmaFloor)
        s2 = math.max(math.sqrt(ss2 / n2), sigmaFloor)
      }
      it += 1
    }
    if (mu1 <= mu2) Gmm2(c1, mu1, s1, c2, mu2, s2) else Gmm2(c2, mu2, s2, c1, mu1, s1)
  }

  /** Ashman's D: how far apart the two components are relative to their
    * spreads (D > 2 is a clean separation).
    */
  def separation(g: Gmm2): Double =
    math.sqrt(2.0) * (g.mu2 - g.mu1) / math.sqrt(g.sigma1 * g.sigma1 + g.sigma2 * g.sigma2)

  /** Model-implied expected precision/recall/F1 at threshold `s`. */
  def expectedPrf(g: Gmm2, s: Double): (Double, Double, Double) = {
    val r = g.c2 * (1.0 - normCdf(s, g.mu2, g.sigma2))
    val fp = g.c1 * (1.0 - normCdf(s, g.mu1, g.sigma1))
    val p = if (r + fp <= 0) 0.0 else r / (r + fp)
    val f1 = if (p + r <= 0) 0.0 else 2 * p * r / (p + r)
    (p, r, f1)
  }

  /** Grid-search the expected-F1-maximizing threshold at 1024 points over
    * `[lo, hi]`. Returns negative infinity (keep everything) for degenerate inputs.
    */
  def selectThreshold(g: Gmm2, lo: Double, hi: Double): Double = {
    if (!(hi > lo)) return Double.NegativeInfinity
    var best = lo; var bestF1 = -1.0
    var k = 0
    while (k < GridPoints) {
      val s = lo + (hi - lo) * k / (GridPoints - 1)
      val f1 = expectedPrf(g, s)._3
      if (f1 > bestF1) { bestF1 = f1; best = s }
      k += 1
    }
    best
  }

  /** End-to-end: fit the mixture over matched edge weights and return the stop
    * threshold. With fewer than four edges there is nothing to fit — keep all.
    */
  def stopThreshold(weights: Array[Double]): Double = stopThresholdWithFit(weights)._1

  /** [[stopThreshold]] plus the fitted mixture it was selected from (None
    * when there were too few edges to fit).
    */
  def stopThresholdWithFit(weights: Array[Double]): (Double, Option[Gmm2]) =
    if (weights.length < 4) (Double.NegativeInfinity, None)
    else {
      val g = fit(weights)
      (selectThreshold(g, weights.min, weights.max), Some(g))
    }
}
