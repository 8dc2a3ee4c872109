package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.exp.Experiments._

/** T10 (paper §3.3): the auto-tuned spatial level lands where accuracy has
  * saturated but comparisons have not yet blown up.
  */
class T10TuningBench extends SparkSpec {

  private val levels = Seq(6, 8, 10, 12, 14, 16, 18)

  private lazy val cabSc = cabScenario(spark, n = 40, recsPerEntity = 300, days = 2,
    rho = 0.5, p = 0.5)
  private lazy val smSc = smScenario(spark, n = 150, recsPerEntity = 24, days = 8,
    rho = 0.5, p = 0.5)
  private lazy val rows = tuningStudy(
    Seq("cab" -> cabSc, "sm" -> smSc), windowSec = 900, levels = levels)

  test("T10: tuning table") {
    Experiments.printTable("T10 auto spatial-level tuning (window 15 min)", rows)
    assert(rows.size == 2)
  }

  test("T10: chosen levels are interior points of the sweep") {
    for (r <- rows)
      assert(r.chosenLevel > levels.head && r.chosenLevel < levels.last,
        s"${r.dataset} chose ${r.chosenLevel}")
  }

  test("T10: the tuned Cab level achieves near-best F1 at lower cost than max detail") {
    val tuned = rows.find(_.dataset == "cab").get.chosenLevel
    val sweep = spatioTemporalSweep(spark, cabSc, Seq(tuned, 20), Seq(15))
    val atTuned = sweep.find(_.level == tuned).get
    val atMax = sweep.find(_.level == 20).get
    assert(atTuned.f1 >= atMax.f1 - 0.15,
      s"tuned level $tuned f1 ${atTuned.f1} vs level-20 f1 ${atMax.f1}")
    assert(atTuned.comparisons <= atMax.comparisons * 1.2)
  }
}
