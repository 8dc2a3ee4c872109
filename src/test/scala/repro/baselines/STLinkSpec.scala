package repro.baselines

import org.apache.spark.sql.CachedPlans
import org.apache.spark.sql.functions.{col, lit, when}
import repro.SparkSpec
import repro.core.{Histories, Metrics, TestSupport}
import repro.core.TestSupport.recordsDf
import repro.mobility.MobilityGen

class STLinkSpec extends SparkSpec {

  private lazy val ground = MobilityGen.ground(spark,
    MobilityGen.cabConfig(nEntities = 50, recordsPerEntity = 200, days = 2)).cache()
  private lazy val pair = MobilityGen.samplePair(ground, n = 20, intersectRatio = 0.5,
    inclusionProb = 0.6)

  test("autoThreshold finds the knee of a skewed count distribution") {
    val counts = Seq.fill(50)(1L) ++ Seq.fill(10)(3L) ++ Seq(40L, 45L, 50L)
    val k = STLink.autoThreshold(counts)
    assert(k >= 2 && k <= 40, s"k=$k")
  }

  test("autoThreshold degenerate inputs fall back to 2") {
    assert(STLink.autoThreshold(Nil) == 2)
    assert(STLink.autoThreshold(Seq(5L, 5L, 5L)) == 2)
  }

  /** The auto-(k, l) run on the pair. */
  private lazy val auto = STLink.run(spark, pair.e, pair.i, STLink.Config())

  test("ST-Link links co-occurring entities and respects one-to-one-ness") {
    val r = auto
    assert(r.links.nonEmpty, "should find some links on dense co-located data")
    assert(r.links.map(_._1).distinct.size == r.links.size)
    assert(r.links.map(_._2).distinct.size == r.links.size)
    val m = Metrics.prf(r.links, pair.truth)
    assert(m.precision >= 0.8, s"ST-Link precision ${m.precision}")
    assert(m.recall >= 0.3, s"ST-Link recall ${m.recall}")
  }

  test("explicit (k, l) thresholds are honored") {
    val r = STLink.run(spark, pair.e, pair.i,
      STLink.Config(k = Some(3), l = Some(2)))
    assert(r.kUsed == 3 && r.lUsed == 2)
    // every surviving score (co-occurrence count) is >= k
    assert(r.scores.values.forall(_ >= 3.0))
  }

  test("a demanding k suppresses links") {
    val strict = STLink.run(spark, pair.e, pair.i,
      STLink.Config(k = Some(1000), l = Some(2)))
    assert(strict.links.isEmpty)
  }

  test("alibi tolerance: zero-tolerance drops cross-town pairs that co-occur by chance") {
    // u co-occurs with v in two cells but also has a distant same-window bin.
    val e = recordsDf(spark,
      (0 until 10).map(i => (1L, i * 900L + 10, 37.77, -122.42)) ++
        (0 until 10).map(i => (1L, i * 900L + 20, 37.78, -122.41)))
    val i = recordsDf(spark,
      (0 until 10).map(j => (2L, j * 900L + 400, 37.77, -122.42)) ++
        (0 until 10).map(j => (2L, j * 900L + 500, 37.78, -122.41)) ++
        (0 until 10).map(j => (2L, j * 900L + 600, 38.25, -121.70))) // ~80 km away
    val tolerant = STLink.run(spark, e, i,
      STLink.Config(k = Some(2), l = Some(2), alibiTolerance = 1000))
    val strict = STLink.run(spark, e, i,
      STLink.Config(k = Some(2), l = Some(2), alibiTolerance = 0))
    assert(tolerant.links.contains((1L, 2L)))
    assert(!strict.links.contains((1L, 2L)))
  }

  test("ambiguity removal: an entity matching two partners links to neither") {
    // v1 and v2 both co-occur heavily with u.
    def trace(id: Long, offset: Long) =
      (0 until 12).map(i => (id, i * 900L + offset, 37.77, -122.42))
    val e = recordsDf(spark, trace(1L, 10))
    val i = recordsDf(spark, trace(101L, 400) ++ trace(102L, 500))
    val r = STLink.run(spark, e, i, STLink.Config(k = Some(2), l = Some(1)))
    assert(r.links.isEmpty, "ambiguous matches must be discarded")
    assert(r.scores.keySet == Set((1L, 101L), (1L, 102L)))
  }

  test("comparisons metric counts window record pairs (no blocking)") {
    val e = recordsDf(spark, Seq((1L, 0L, 10.0, 10.0), (1L, 10L, 10.0, 10.0)))
    val i = recordsDf(spark, Seq((2L, 20L, 10.0, 10.0), (2L, 1000L, 10.0, 10.0)))
    val r = STLink.run(spark, e, i, STLink.Config(k = Some(1), l = Some(1)))
    assert(r.comparisons == 2 * 1 + 0) // window 0: 2x1; window 1: E absent
  }

  test("ST-Link equals the DataFrame reference at 1, 7 and 64 partitions") {
    // Each partition reduces its own windows and the driver merges them, so
    // the result must not depend on the partitioning.
    def exact(r: STLink.Result) = r.copy(elapsedMs = 0)
    // At 0.5 km/min (a 7.5 km runaway distance) some passing pairs have
    // alibis, so the tolerance decides which pairs survive.
    val explicit = STLink.Config(k = Some(3), l = Some(2), speedKmPerMin = 0.5)
    val cfgs = Seq(STLink.Config(), explicit.copy(alibiTolerance = 0),
      explicit.copy(alibiTolerance = 3))
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    def at[A](n: Int)(body: => A): A = { spark.conf.set(key, n.toString); body }
    try {
      // The reference runs many more jobs and tasks: once per case, at one partition.
      val want = at(1)(cfgs.map(c => exact(STLinkReference.run(spark, pair.e, pair.i, c))))
      // The cases differ: the tolerance drops some pairs, and auto (k, l) is not (3, 2).
      assert(want(0).links.nonEmpty && want(1).scores.size < want(2).scores.size)
      assert((want(0).kUsed, want(0).lUsed) != ((3, 2)))
      for (n <- Seq(1, 7, 64); (c, w) <- cfgs.zip(want))
        assert(at(n)(exact(STLink.run(spark, pair.e, pair.i, c))) == w, s"$c at $n partitions")
    } finally spark.conf.set(key, saved)
  }

  test("a warm ST-Link run runs at most 2 Spark jobs") {
    // The co-occurrence pass's collect bins both datasets into one cache
    // with one shuffle; the alibi pass reads the cache with no exchange.
    auto // warm-up, not counted
    var r: STLink.Result = null
    val jobs = TestSupport.jobsDuring(spark) { r = STLink.run(spark, pair.e, pair.i, STLink.Config()) }
    assert(r.links.nonEmpty)
    assert(jobs <= 2, s"$jobs jobs")
  }

  test("degenerate input: an empty E or I yields no links") {
    val some = recordsDf(spark, Seq((1L, 0L, 10.0, 10.0), (1L, 900L, 10.0, 10.0)))
    val none = recordsDf(spark, Seq.empty)
    for ((e, i) <- Seq((none, some), (some, none))) {
      val r = STLink.run(spark, e, i, STLink.Config())
      assert(r.links.isEmpty && r.scores.isEmpty && r.comparisons == 0)
      assert(r.kUsed == 2 && r.lUsed == 2)
    }
  }

  test("a run that throws leaves no histories cached") {
    def cached = (CachedPlans.count(spark), spark.sparkContext.getPersistentRDDs.keySet)
    val before = cached
    // A null in any record column, or a NaN latitude, also behind a
    // repartition, fails the first pass's collect.
    val some = recordsDf(spark, Seq((1L, 0L, 10.0, 10.0), (1L, 900L, 10.0, 10.0)))
    def withNull(c: String) = some.withColumn(c, when(col("ts") === 0L, lit(null)).otherwise(col(c)))
    val nan = recordsDf(spark, Seq((1L, 0L, Double.NaN, 10.0), (1L, 900L, 10.0, 10.0)))
    val other = recordsDf(spark, Seq((2L, 0L, 10.0, 10.0)))
    val bad = Histories.RecordColumns.map(c => (s"a null $c", withNull(c), s"null $c")) ++
      Seq(("a NaN latitude", nan, "lat NaN"), ("a NaN latitude behind a repartition",
        nan.repartition(2), "lat NaN"))
    for ((name, records, message) <- bad) {
      val e = intercept[Exception](STLink.run(spark, records, other, STLink.Config()))
      assert(e.getMessage.contains(message), s"$name: ${e.getMessage}")
      assert(cached == before, s"after $name")
    }
  }
}
