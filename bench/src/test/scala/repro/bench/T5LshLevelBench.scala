package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.exp.Experiments._

/** T5 (paper Fig. 8): LSH relative F1 and speed-up as a function of the
  * signature spatial level and the temporal step size, on both profiles.
  */
class T5LshLevelBench extends SparkSpec {

  private val sigLevels = Seq(10, 12, 14, 16)
  private val steps = Seq(12, 24, 48)

  private lazy val cabSc = cabScenario(spark, n = 50, recsPerEntity = 400, days = 4,
    rho = 0.5, p = 0.5)
  private lazy val cabRows = lshLevelSweep(spark, cabSc, sigLevels, steps)

  private lazy val smSc = smScenario(spark, n = 250, recsPerEntity = 24, days = 8,
    rho = 0.5, p = 0.5)
  private lazy val smRows = lshLevelSweep(spark, smSc, sigLevels, steps)

  private def show(name: String, rows: Seq[LshLevelRow]): Unit =
    Experiments.printTable(
      s"T5 Fig8 $name: LSH relF1/speedup vs (signature level, step)", rows)

  test("T5: Cab LSH sweep table (Fig 8a/b)") {
    show(cabSc.name, cabRows)
    assert(cabRows.size == sigLevels.size * steps.size)
  }

  test("T5: SM LSH sweep table (Fig 8c/d)") {
    show(smSc.name, smRows)
    assert(smRows.size == sigLevels.size * steps.size)
  }

  test("T5: coarse signature cells give no speed-up on the dense Cab data (paper: none below level 12)") {
    val coarse = cabRows.filter(_.sigLevel == 10)
    assert(coarse.map(_.speedup).min < 3.0,
      s"coarse speedups ${coarse.map(_.speedup)}")
    assert(coarse.map(_.relF1).max >= 0.9)
  }

  test("T5: fine signature cells bring large speed-up while preserving F1 (paper: ~200x at 86-98% F1)") {
    // Our grid level 14 is the size-equivalent of the paper's S2 level 16
    // (DESIGN S1) and our record noise (0.4 km) matches its cell size there;
    // past that, dominating cells flip between the two samples and relF1
    // collapses — same knee, shifted axis.
    val fine = cabRows.filter(r => r.sigLevel >= 14)
    val good = fine.filter(_.relF1 >= 0.8)
    assert(good.nonEmpty, s"no accuracy-preserving fine setting: $fine")
    assert(good.map(_.speedup).max >= 20.0, s"speedups ${good.map(_.speedup)}")
  }

  test("T5: SM retains a smaller candidate fraction than Cab (paper: 1177x vs 202x speed-up, driven by scale and lower skew)") {
    // The paper's absolute ordering comes from the 30k-vs-265 entity gap; the
    // scale-free shape is the *fraction* of the cross product LSH retains —
    // SM's cross-city structure prunes harder per pair.
    // Compared at (sigLevel 12, step 48), where both profiles preserve F1 —
    // at degenerate settings retention measures lost true pairs, not pruning.
    def retention(rows: Seq[LshLevelRow], sc: Experiments.Scenario): Double = {
      val total = sc.e.select("id").distinct().count() *
        sc.i.select("id").distinct().count()
      rows.find(r => r.sigLevel == 12 && r.stepWindows == 48).get.candidates.toDouble / total
    }
    val cab = retention(cabRows, cabSc)
    val sm = retention(smRows, smSc)
    assert(sm <= cab * 1.2, s"sm retention $sm vs cab retention $cab")
  }

  test("T5: SM speed-up rises earlier in spatial detail (lower geographic skew)") {
    val cab12 = cabRows.filter(_.sigLevel == 12).map(_.speedup).max
    val sm12 = smRows.filter(_.sigLevel == 12).map(_.speedup).max
    assert(sm12 >= cab12, s"sm@12 $sm12 vs cab@12 $cab12")
  }
}
