package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.exp.Experiments._

/** T7 (paper Fig. 10): ablation — F1 of SLIM vs MNN-only vs All-Pairs vs
  * No-IDF vs No-Normalization across spatial detail and window width.
  */
class T7AblationBench extends SparkSpec {

  private lazy val sc = cabScenario(spark, n = 40, recsPerEntity = 300, days = 2,
    rho = 0.5, p = 0.5)
  private val levels = Seq(8, 12, 16, 20)
  private val windows = Seq(5, 15, 90, 720)
  private lazy val rows = ablation(spark, sc, levels, windows)

  private def f1(axis: String, v: Int, variant: String): Double =
    rows.find(r => r.axis == axis && r.value == v && r.variant == variant).get.f1

  test("T7: ablation tables (Fig 10)") {
    for ((axis, table) <- ablationTables(rows))
      Experiments.printTable(s"T7 Fig10 ${sc.name}: F1 by $axis per variant", table)
    assert(rows.size == (levels.size + windows.size) * AblationVariants.size)
  }

  test("T7: all pairing variants agree at narrow windows (paper: similar F1 at 15 min)") {
    for (variant <- Seq("MNN", "AllPairs")) {
      val d = math.abs(f1("windowMin", 15, "SLIM") - f1("windowMin", 15, variant))
      assert(d <= 0.25, s"$variant differs by $d at 15-min windows")
    }
  }

  test("T7: All-Pairs over-counting hurts at wide windows (paper: 0.61 vs 0.90 at 720 min)") {
    val slim = f1("windowMin", 720, "SLIM")
    val allPairs = f1("windowMin", 720, "AllPairs")
    assert(allPairs <= slim + 0.05, s"SLIM $slim vs AllPairs $allPairs at 720 min")
  }

  test("T7: normalization matters at high spatial detail (paper: 0.96 vs 0.76 at level 24)") {
    val maxLvl = levels.max
    val slim = f1("level", maxLvl, "SLIM")
    val noNorm = f1("level", maxLvl, "NoNorm")
    assert(noNorm <= slim + 0.05, s"SLIM $slim vs NoNorm $noNorm at level $maxLvl")
  }

  test("T7: idf matters at wide windows (paper: 0.89 vs 0.69 at 720 min)") {
    val slim = f1("windowMin", 720, "SLIM")
    val noIdf = f1("windowMin", 720, "NoIDF")
    assert(noIdf <= slim + 0.05, s"SLIM $slim vs NoIDF $noIdf at 720 min")
  }
}
