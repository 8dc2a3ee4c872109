package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.exp.Experiments._

/** T1 (paper Fig. 4): Cab — precision/recall/alibi-pairs/comparisons as a
  * function of the spatio-temporal level. Reduced scale: 50 entities per
  * side, ~300 records each over 2 days (paper: 265 entities, ~10.7k records
  * over 24 days).
  */
class T1SpatioTemporalCabBench extends SparkSpec {

  private lazy val sc = cabScenario(spark, n = 50, recsPerEntity = 300, days = 2,
    rho = 0.5, p = 0.5)
  private val levels = Seq(8, 12, 16, 20)
  private val windows = Seq(5, 15, 90, 360)
  private lazy val rows = spatioTemporalSweep(spark, sc, levels, windows)

  test("T1: sweep table (Fig 4)") {
    Experiments.printTable(
      s"T1 Fig4 Cab ${sc.name}: accuracy/cost vs (level, window)", rows)
    assert(rows.size == levels.size * windows.size)
  }

  test("T1: fine spatial detail at moderate windows links accurately (paper: F1>0.95 past level 12)") {
    val best = rows.filter(r => r.level >= 16 && r.windowMin == 15).map(_.f1).max
    assert(best >= 0.85, s"best fine-level F1 $best")
  }

  test("T1: accuracy collapses at the coarsest spatial level") {
    val coarse = rows.filter(r => r.level == 8 && r.windowMin == 15).head
    val fine = rows.filter(r => r.level == 16 && r.windowMin == 15).head
    assert(coarse.f1 <= fine.f1 + 1e-9)
    assert(fine.f1 - coarse.f1 >= 0.15, s"coarse ${coarse.f1} vs fine ${fine.f1}")
  }

  test("T1: very wide windows hurt precision at fine levels (paper: w>=90 drops precision)") {
    val at15 = rows.find(r => r.level == 16 && r.windowMin == 15).get
    val at360 = rows.find(r => r.level == 16 && r.windowMin == 360).get
    assert(at360.precision <= at15.precision + 0.02,
      s"precision ${at360.precision} at w=360 vs ${at15.precision} at w=15")
  }

  test("T1: comparisons grow with spatial detail at fixed window (paper: 1.14x from 12 to 20)") {
    val c12 = rows.find(r => r.level == 12 && r.windowMin == 15).get.comparisons
    val c20 = rows.find(r => r.level == 20 && r.windowMin == 15).get.comparisons
    assert(c20 >= c12, s"c20=$c20 c12=$c12")
  }

  test("T1: comparisons grow with window width at fixed level (paper: 3.15x from 15 to 360 min)") {
    val w15 = rows.find(r => r.level == 12 && r.windowMin == 15).get.comparisons
    val w360 = rows.find(r => r.level == 12 && r.windowMin == 360).get.comparisons
    assert(w360 > w15, s"w360=$w360 w15=$w15")
  }

  test("T1: narrow windows detect alibis in the dense city (paper: best cab recall at 5-min windows)") {
    val a5 = rows.filter(r => r.windowMin == 5).map(_.alibiPairs).sum
    val a360 = rows.filter(r => r.windowMin == 360).map(_.alibiPairs).sum
    assert(a5 >= a360, s"alibis at 5min=$a5, at 360min=$a360")
  }
}
