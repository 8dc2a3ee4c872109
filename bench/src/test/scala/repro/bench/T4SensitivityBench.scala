package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.exp.Experiments._

/** T4 (paper Fig. 7): F1 and runtime vs record inclusion probability, per
  * entity intersection ratio, for both dataset profiles.
  */
class T4SensitivityBench extends SparkSpec {

  private val rhos = Seq(0.3, 0.5, 0.7)

  private lazy val cabRows = sensitivity(spark,
    (rho, p) => cabScenario(spark, n = 40, recsPerEntity = 300, days = 2,
      rho = rho, p = p),
    rhos, ps = Seq(0.1, 0.25, 0.5, 0.9))

  private lazy val smRows = sensitivity(spark,
    (rho, p) => smScenario(spark, n = 200, recsPerEntity = 30, days = 8,
      rho = rho, p = p),
    rhos, ps = Seq(0.3, 0.5, 0.8))

  test("T4: Cab sensitivity table (Fig 7a/b)") {
    Experiments.printTable(
      "T4 Fig7ab Cab(n=40, recs<=300): F1/runtime vs inclusion probability", cabRows)
    assert(cabRows.size == rhos.size * 4)
  }

  test("T4: SM sensitivity table (Fig 7c/d)") {
    Experiments.printTable(
      "T4 Fig7cd SM(n=200, recs<=30): F1/runtime vs inclusion probability", smRows)
    assert(smRows.size == rhos.size * 3)
  }

  test("T4: Cab F1 is robust to downsampling (paper: ~1 even at p=0.1)") {
    // dense records: even the thinnest sample keeps tens of records/entity
    for (r <- cabRows if r.p >= 0.25)
      assert(r.f1 >= 0.7, s"rho=${r.rho} p=${r.p} f1=${r.f1}")
  }

  test("T4: SM F1 degrades at low record counts, recovers with density (paper: >=0.9 past 15 records)") {
    for (rho <- rhos) {
      val mine = smRows.filter(_.rho == rho).sortBy(_.p)
      assert(mine.last.f1 >= mine.head.f1 - 0.05,
        s"rho=$rho f1 by p: ${mine.map(r => r.p -> r.f1)}")
    }
    val dense = smRows.filter(_.p >= 0.8)
    assert(dense.map(_.f1).max >= 0.6, s"dense SM f1s ${dense.map(_.f1)}")
  }

  test("T4: runtime grows sub-quadratically with record density (paper: ~linear)") {
    val byP = cabRows.filter(_.rho == 0.5).sortBy(_.p)
    val (lo, hi) = (byP.head, byP.last)
    val recRatio = hi.avgRecords / lo.avgRecords
    val timeRatio = hi.elapsedMs.toDouble / math.max(1, lo.elapsedMs)
    assert(timeRatio <= recRatio * recRatio,
      s"time ratio $timeRatio vs record ratio $recRatio")
  }
}
