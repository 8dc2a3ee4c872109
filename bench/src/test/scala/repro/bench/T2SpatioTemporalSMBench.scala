package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.exp.Experiments._

/** T2 (paper Fig. 5): SM — accuracy/cost vs the spatio-temporal level.
  * Reduced scale: 250 entities per side, ~24 records each over 8 days
  * (paper: ~30k entities, ~12 records, 26 days).
  */
class T2SpatioTemporalSMBench extends SparkSpec {

  private lazy val sc = smScenario(spark, n = 250, recsPerEntity = 24, days = 8,
    rho = 0.5, p = 0.5)
  private val levels = Seq(8, 12, 16, 20)
  private val windows = Seq(15, 90, 360)
  private lazy val rows = spatioTemporalSweep(spark, sc, levels, windows)

  test("T2: sweep table (Fig 5)") {
    Experiments.printTable(
      s"T2 Fig5 SM ${sc.name}: accuracy/cost vs (level, window)", rows)
    assert(rows.size == levels.size * windows.size)
  }

  test("T2: accuracy improves with spatial detail then saturates") {
    val at15 = levels.map(l => rows.find(r => r.level == l && r.windowMin == 15).get.f1)
    assert(at15.last >= at15.head, s"f1 by level: $at15")
    assert(at15.max >= 0.5, s"f1 by level: $at15")
    // saturation: the last refinement moves F1 less than the first
    assert(math.abs(at15(3) - at15(2)) <= math.abs(at15(1) - at15(0)) + 0.05,
      s"f1 by level: $at15")
  }

  test("T2: sparse SM records favor moderate windows (paper: best recall at 15-min, not 5)") {
    val recall15 = rows.find(r => r.level == 16 && r.windowMin == 15).get.recall
    val recall360 = rows.find(r => r.level == 16 && r.windowMin == 360).get.recall
    assert(recall15 > 0.2, s"recall at 15-min $recall15")
    assert(recall15 >= recall360 - 0.1,
      s"15-min recall $recall15 vs 360-min $recall360")
  }

  test("T2: cross-city pairs provide alibi evidence") {
    assert(rows.map(_.alibiPairs).sum > 0)
  }

  test("T2: comparisons grow with window width") {
    val w15 = rows.find(r => r.level == 12 && r.windowMin == 15).get.comparisons
    val w360 = rows.find(r => r.level == 12 && r.windowMin == 360).get.comparisons
    assert(w360 >= w15)
  }
}
