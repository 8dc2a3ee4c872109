package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.exp.Experiments._

/** T3 (paper Fig. 6): the fitted GMM and detected stop threshold per spatial
  * level at a 90-minute window — separation of the true/false-link clusters
  * improves with spatial detail.
  */
class T3GmmThresholdBench extends SparkSpec {

  private lazy val sc = cabScenario(spark, n = 50, recsPerEntity = 300, days = 2,
    rho = 0.5, p = 0.5)
  private val levels = Seq(4, 8, 12, 16)
  private lazy val rows = gmmThresholdStudy(spark, sc, levels)

  test("T3: GMM fit table (Fig 6)") {
    Experiments.printTable(
      s"T3 Fig6 ${sc.name}: GMM components and stop threshold (w=90min)", rows)
    assert(rows.size == levels.size)
  }

  test("T3: threshold-quality improves with spatial detail (paper: subpar below level 12)") {
    // Ashman's D is not meaningful at fully-degenerate coarse levels (EM
    // splits near-zero noise into two spikes), so the shape check is the one
    // the paper actually reads off Fig 6: the detected threshold yields
    // usable linkage only once the clusters separate — F1 after thresholding
    // rises with the level.
    def f1(r: repro.exp.Experiments.GmmRow): Double =
      if (r.precision + r.recall <= 0) 0.0
      else 2 * r.precision * r.recall / (r.precision + r.recall)
    val byLevel = rows.sortBy(_.level).map(f1)
    assert(byLevel.last > byLevel.head, s"f1 by level $byLevel")
    byLevel.sliding(2).foreach { case Seq(a, b) =>
      assert(b >= a - 0.1, s"f1 by level $byLevel should not regress sharply")
    }
    // among levels where EM saw a real mixture (nontrivial recall), the
    // separation at fine levels is at least the coarse one
    val real = rows.filter(_.recall > 0)
    assert(real.nonEmpty && real.maxBy(_.level).separation >=
      real.minBy(_.level).separation * 0.5)
  }

  test("T3: the threshold sits between the two component means at fine levels") {
    val fine = rows.find(_.level == 16).get
    assert(fine.threshold >= fine.mu1 - 3 * fine.sigma1)
    assert(fine.threshold <= fine.mu2 + 1e-9)
  }

  test("T3: precision at fine levels beats the coarsest level") {
    assert(rows.find(_.level == 16).get.precision >=
      rows.find(_.level == 4).get.precision)
  }
}
