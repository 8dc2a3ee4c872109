package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.exp.Experiments._

/** T8 (paper Fig. 11a/b): SLIM vs SLIM-noLSH vs ST-Link vs GM across record
  * densities — Hit-Precision@40, F1, runtime. Reduced scale: 40 entities per
  * side (paper: 265), densities 20..320 (paper: 20..660).
  */
class T8ComparisonBench extends SparkSpec {

  // p = 0.6 keeps the two services asynchronous (disjoint record subsets);
  // ground density is scaled up so the sampled averages hit the axis values.
  private val densities = Seq(20.0, 80.0, 320.0)
  private lazy val rows = comparison(spark,
    recs => cabScenario(spark, n = 40, recsPerEntity = recs / 0.6, days = 2,
      rho = 0.5, p = 0.6),
    densities)

  private def get(algo: String, recs: Double): ComparisonRow =
    rows.find(r => r.algo == algo && r.avgRecords == recs).get

  test("T8: comparison table (Fig 11a/b)") {
    Experiments.printTable(
      "T8 Fig11ab Cab(n=40, rho=0.5): algorithms vs record density", rows)
    assert(rows.size == densities.size * 4)
  }

  test("T8: SLIM hit precision beats GM at every density (paper: SLIM wins all points)") {
    for (d <- densities) {
      assert(get("SLIM", d).hitPrec40 >= get("GM", d).hitPrec40 - 0.02,
        s"density $d: SLIM ${get("SLIM", d).hitPrec40} vs GM ${get("GM", d).hitPrec40}")
    }
  }

  test("T8: SLIM F1 leads at low densities (paper: 0.3 vs ~0.05 at 20 records)") {
    val d = densities.head
    val slim = get("SLIM-noLSH", d).f1
    assert(slim >= get("GM", d).f1 - 0.02, s"SLIM $slim vs GM ${get("GM", d).f1}")
  }

  test("T8: dense data: every algorithm links well, SLIM best or tied (paper: 0.92/0.89/0.87/0.73)") {
    val d = densities.last
    val slim = get("SLIM-noLSH", d).f1
    assert(slim >= 0.8, s"SLIM f1 $slim at density $d")
    assert(slim >= get("GM", d).f1 - 0.05)
    assert(slim >= get("ST-Link", d).f1 - 0.1)
    assert(get("SLIM", d).f1 >= slim - 0.15, "LSH SLIM close to no-LSH SLIM")
  }

  test("T8: GM's unblocked scoring does far more work than LSH SLIM (paper: 2 orders slower)") {
    // At bench scale, wall time is dominated by fixed Spark overheads, so the
    // scale-free cost metric is the comparison count: GM evaluates every
    // record of every candidate under every model (quadratic, no blocking).
    val d = densities.last
    val gm = get("GM", d).comparisons
    val slim = get("SLIM", d).comparisons
    assert(gm >= slim * 10, s"GM $gm comparisons vs LSH SLIM $slim")
  }
}
