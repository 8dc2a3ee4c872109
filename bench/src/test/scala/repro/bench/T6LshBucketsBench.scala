package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.exp.Experiments._

/** T6 (paper Fig. 9): speed-up as a function of the number of hash buckets,
  * for different LSH similarity thresholds (signature level 14 / step 48 on
  * Cab, 12 / 24 on SM).
  */
class T6LshBucketsBench extends SparkSpec {

  private val buckets = Seq(1 << 8, 1 << 12, 1 << 18)
  private val ts = Seq(0.4, 0.6, 0.8)

  // Signature settings are each profile's accuracy-preserving point from T5
  // (paper uses S2 level 16 / step 48; our grid+noise equivalents differ —
  // DESIGN S1): cab (14, 48), sm (12, 24).
  private lazy val cabSc = cabScenario(spark, n = 50, recsPerEntity = 400, days = 4,
    rho = 0.5, p = 0.5)
  private lazy val cabRows = lshBucketSweep(spark, cabSc, buckets, ts,
    sigLevel = 14, stepWindows = 48)

  private lazy val smSc = smScenario(spark, n = 250, recsPerEntity = 24, days = 8,
    rho = 0.5, p = 0.5)
  private lazy val smRows = lshBucketSweep(spark, smSc, buckets, ts,
    sigLevel = 12, stepWindows = 24)

  private def show(name: String, rows: Seq[LshBucketRow]): Unit =
    Experiments.printTable(
      s"T6 Fig9 $name: speedup vs buckets per threshold", rows)

  test("T6: Cab bucket sweep table (Fig 9a)") {
    show(cabSc.name, cabRows)
    assert(cabRows.size == buckets.size * ts.size)
  }

  test("T6: SM bucket sweep table (Fig 9b)") {
    show(smSc.name, smRows)
    assert(smRows.size == buckets.size * ts.size)
  }

  test("T6: more buckets give weakly more speed-up (fewer hash collisions)") {
    for (rows <- Seq(cabRows, smRows); t <- ts) {
      val byBuckets = rows.filter(_.t == t).sortBy(_.buckets).map(_.speedup)
      assert(byBuckets.last >= byBuckets.head * 0.8,
        s"t=$t speedups by buckets: $byBuckets")
    }
  }

  test("T6: stricter thresholds prune more (higher speed-up) at max buckets") {
    for (rows <- Seq(smRows)) {
      val atMax = rows.filter(_.buckets == (1 << 18))
      val loose = atMax.find(_.t == 0.4).get.speedup
      val strict = atMax.find(_.t == 0.8).get.speedup
      assert(strict >= loose, s"strict $strict vs loose $loose")
    }
  }

  test("T6: both profiles reach large speed-ups at 2^18 buckets (paper: 380x Cab, 11742x SM at full scale)") {
    // The paper's 30x gap between SM and Cab is an entity-count effect
    // (30k vs 265); at bench scale both should show order-of-magnitude
    // speed-ups with the bucket count maxed.
    val cab = cabRows.filter(r => r.buckets == (1 << 18) && r.t == 0.6).head
    val sm = smRows.filter(r => r.buckets == (1 << 18) && r.t == 0.6).head
    assert(cab.speedup >= 10, s"cab ${cab.speedup}")
    assert(sm.speedup >= 10, s"sm ${sm.speedup}")
  }
}
