package repro.core

import repro.SparkSpec
import repro.mobility.MobilityGen

class TuningSparkSpec extends SparkSpec {

  private lazy val records = MobilityGen.ground(spark,
    MobilityGen.cabConfig(nEntities = 30, recordsPerEntity = 120, days = 2)).cache()

  test("self-similarity ratio curve decreases then flattens with spatial detail") {
    val curve = Tuning.selfSimilarityCurve(records, windowSec = 900,
      levels = Seq(4, 6, 8, 10, 12, 14, 16, 18), sampleEntities = 6, poolEntities = 15)
    assert(curve.size == 8)
    val ys = curve.map(_._2)
    // coarse levels: pairs look like self (ratio near 1); fine levels: much lower
    assert(ys.head > ys.last, s"curve $curve should decrease overall")
    assert(ys.last < 0.7 * ys.head, s"fine detail should separate entities: $curve")
    // flattening: the last step changes much less than the biggest step
    val drops = ys.sliding(2).map { case Seq(a, b) => a - b }.toSeq
    assert(drops.last.abs < drops.map(_.abs).max * 0.8)
  }

  test("autoSpatialLevel picks an interior level of the sweep") {
    val levels = Seq(4, 6, 8, 10, 12, 14, 16, 18)
    val (lvl, curve) = Tuning.autoSpatialLevel(records, 900, levels,
      sampleEntities = 6, poolEntities = 15)
    assert(levels.contains(lvl))
    assert(lvl > levels.head && lvl < levels.last, s"level $lvl, curve $curve")
  }

  test("autoSpatialLevelPair takes the max of the two datasets' elbows") {
    val pair = MobilityGen.samplePair(records, n = 12, intersectRatio = 0.5,
      inclusionProb = 0.8)
    val levels = Seq(4, 8, 12, 16)
    val lvl = Tuning.autoSpatialLevelPair(pair.e, pair.i, 900, levels,
      sampleEntities = 5, poolEntities = 10)
    assert(levels.contains(lvl))
  }
}
