package repro.baselines

import repro.SparkSpec
import repro.core.Metrics
import repro.mobility.MobilityGen

class GMSpec extends SparkSpec {

  private lazy val ground = MobilityGen.ground(spark,
    MobilityGen.cabConfig(nEntities = 40, recordsPerEntity = 150, days = 2)).cache()
  private lazy val pair = MobilityGen.samplePair(ground, n = 16, intersectRatio = 0.5,
    inclusionProb = 0.6)

  test("fitModel: slot Gaussians center on the records") {
    val recs = (0 until 50).map(i => (i * 3600L, 37.77 + 0.001 * (i % 3), -122.42))
    val m = GM.fitModel(recs)
    assert(m.slotGauss.nonEmpty)
    for ((_, (muLat, muLon, sLat, sLon, w)) <- m.slotGauss) {
      assert(math.abs(muLat - 37.771) < 0.01)
      assert(math.abs(muLon + 122.42) < 0.01)
      assert(sLat > 0 && sLon > 0 && w > 0 && w <= 1)
    }
    assert(math.abs(m.slotGauss.values.map(_._5).sum - 1.0) < 1e-9)
  }

  test("fitModel: Markov transitions are log-probabilities") {
    val recs = (0 until 30).map(i =>
      (i * 600L, 37.77 + (i % 2) * 0.1, -122.42)) // alternate two cells
    val m = GM.fitModel(recs)
    assert(m.transLogP.nonEmpty)
    assert(m.transLogP.values.forall(v => v < 0))
    assert(m.transFloor < m.transLogP.values.max)
  }

  test("score: an entity's model likes its own trace more than a distant one") {
    val own = (0 until 40).map(i => (i * 1800L, 37.77, -122.42))
    val other = (0 until 40).map(i => (i * 1800L, 40.71, -74.01))
    val m = GM.fitModel(own)
    assert(GM.score(m, own) > GM.score(m, other))
  }

  test("score of an empty trace is -infinity") {
    val m = GM.fitModel(Seq((0L, 37.77, -122.42), (600L, 37.77, -122.42)))
    assert(GM.score(m, Nil).isNegInfinity)
  }

  test("GM links planted entities with reasonable accuracy on dense data") {
    val r = GM.run(spark, pair.e, pair.i)
    assert(r.links.map(_._1).distinct.size == r.links.size)
    val m = Metrics.prf(r.links.map(l => (l._1, l._2)), pair.truth)
    assert(m.f1 >= 0.4, s"GM F1 ${m.f1} (truth ${pair.truth.size})")
    // true pairs should rank near the top of the score lists
    val hp = Metrics.hitPrecisionAtK(r.scores, pair.pivotIds, pair.truth, k = 10)
    assert(hp >= 0.25, s"GM hit precision $hp")
  }

  test("GM scores every (u, v) pair — no blocking") {
    val r = GM.run(spark, pair.e, pair.i)
    val nE = pair.e.select("id").distinct().count()
    val nI = pair.i.select("id").distinct().count()
    assert(r.scores.size == nE * nI)
  }
}
