package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.exp.Experiments._

/** T9 (paper Fig. 11c/d): SLIM (with LSH) vs ST-Link across record density
  * and intersection ratio — F1, runtime, pairwise comparison counts.
  */
class T9ComparisonScaleBench extends SparkSpec {

  private val densities = Seq(150.0, 600.0)
  private val rhos = Seq(0.3, 0.7)
  // p = 0.6 keeps the services asynchronous; see T8.
  private lazy val rows = comparisonScale(spark,
    (recs, rho) => cabScenario(spark, n = 40, recsPerEntity = recs / 0.6, days = 2,
      rho = rho, p = 0.6),
    densities, rhos)

  private def get(algo: String, recs: Double, rho: Double): ComparisonScaleRow =
    rows.find(r => r.algo == algo && r.avgRecords == recs && r.rho == rho).get

  test("T9: comparison-at-scale table (Fig 11c/d)") {
    Experiments.printTable(
      "T9 Fig11cd Cab(n=40): SLIM vs ST-Link across density x intersection", rows)
    assert(rows.size == densities.size * rhos.size * 2)
  }

  test("T9: SLIM's F1 leads or ties ST-Link at nearly every point (paper: all but one)") {
    val points = for (d <- densities; rho <- rhos)
      yield get("SLIM", d, rho).f1 >= get("ST-Link", d, rho).f1 - 0.1
    assert(points.count(identity) >= points.size - 1, s"wins: $points")
  }

  test("T9: SLIM does orders of magnitude fewer comparisons (paper: 3 orders)") {
    for (d <- densities; rho <- rhos) {
      val slim = get("SLIM", d, rho).comparisons
      val st = get("ST-Link", d, rho).comparisons
      assert(st >= slim * 10, s"d=$d rho=$rho: ST-Link $st vs SLIM $slim")
    }
  }

  test("T9: ST-Link's comparison count grows quadratically with density, SLIM's slower") {
    for (rho <- rhos) {
      val stGrowth = get("ST-Link", densities.last, rho).comparisons.toDouble /
        math.max(1, get("ST-Link", densities.head, rho).comparisons)
      val slimGrowth = get("SLIM", densities.last, rho).comparisons.toDouble /
        math.max(1, get("SLIM", densities.head, rho).comparisons)
      assert(slimGrowth <= stGrowth + 1.0, s"rho=$rho slim x$slimGrowth vs st x$stGrowth")
    }
  }
}
