package repro.mobility

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{Grid, Proximity}

class MobilityGenSpec extends SparkSpec {

  private val cab = MobilityGen.cabConfig(nEntities = 40, recordsPerEntity = 100, days = 2)
  private lazy val ground = MobilityGen.ground(spark, cab).cache()

  test("ground trace has the configured entities and roughly the mean records") {
    assert(ground.select("id").distinct().count() == 40)
    val perEntity = ground.groupBy("id").count().agg(avg("count")).first().getDouble(0)
    assert(perEntity > 80 && perEntity < 120, s"avg records $perEntity")
  }

  test("generation is deterministic") {
    val a = MobilityGen.entityRecords(7L, cab)
    val b = MobilityGen.entityRecords(7L, cab)
    assert(a == b)
    assert(MobilityGen.entityRecords(8L, cab) != a)
  }

  test("timestamps lie within the configured span, sorted per entity") {
    val span = cab.days * 86400L
    val recs = MobilityGen.entityRecords(3L, cab)
    val start = MobilityGen.StartEpoch
    assert(recs.forall(r => r.ts >= start && r.ts < start + span))
    assert(recs.map(_.ts) == recs.map(_.ts).sorted)
  }

  test("records cluster near the home city") {
    val city = cab.cities.head
    val far = ground.filter(
      abs(col("lat") - city.lat) > 1.0 || abs(col("lon") - city.lon) > 1.0)
    assert(far.count() == 0)
  }

  test("an entity's own records never violate the runaway speed (no self-alibis)") {
    val runaway = Proximity.runawayKm(900, Proximity.MaxSpeedKmPerMin) // 30 km per 15-min window
    val sm = MobilityGen.smConfig(nEntities = 40, recordsPerEntity = 100, days = 2)
    for ((name, gen) <- Seq("Cab" -> cab, "SM" -> sm)) {
      assert(gen.travelKmPerMin < Proximity.MaxSpeedKmPerMin, name)
      for (id <- 0L until 10L; Seq(a, b) <- MobilityGen.entityRecords(id, gen).sliding(2)
           if b.ts / 900 == a.ts / 900) {
        val d = Grid.haversineKm(a.lat, a.lon, b.lat, b.lon)
        assert(d <= runaway, s"$name entity $id moved $d km within one window")
      }
    }
  }

  test("distinct entities have distinct anchor sets (distinguishable histories)") {
    val cells = (0L until 20L).map { id =>
      id -> MobilityGen.entityRecords(id, cab)
        .map(r => Grid.cellOf(r.lat, r.lon, 14)).toSet
    }.toMap
    val overlaps = for {
      Seq(a, b) <- cells.keys.toSeq.sorted.combinations(2)
      inter = cells(a).intersect(cells(b)).size.toDouble
      denom = math.min(cells(a).size, cells(b).size)
    } yield inter / denom
    assert(overlaps.count(_ > 0.8) == 0, "near-identical entities would be unlinkable")
  }

  test("SM profile spreads entities over many cities") {
    val sm = MobilityGen.smConfig(nEntities = 120, recordsPerEntity = 15, days = 5)
    val g = MobilityGen.ground(spark, sm)
    val cityCells = g.select(col("id"),
      udf((la: Double, lo: Double) => Grid.cellOf(la, lo, 4)).apply(col("lat"), col("lon"))
        .as("cc"))
      .distinct()
    // each entity stays in one coarse region; many regions are used
    val perEntity = cityCells.groupBy("id").count().agg(max("count")).first().getLong(0)
    assert(perEntity <= 2)
    assert(cityCells.select("cc").distinct().count() >= 8)
  }

  test("samplePair: intersection ratio and id offset are honored") {
    val pair = MobilityGen.samplePair(ground, n = 16, intersectRatio = 0.5,
      inclusionProb = 1.0)
    val idsE = pair.e.select("id").distinct().collect().map(_.getLong(0)).toSet
    val idsI = pair.i.select("id").distinct().collect().map(_.getLong(0)).toSet
    assert(idsE.subsetOf((0L until 16L).toSet))
    assert(idsI.forall(_ >= MobilityGen.IdOffset))
    assert(pair.truth.size == 8) // full inclusion -> all common entities survive
    assert(pair.truth.forall { case (u, v) => v == u + MobilityGen.IdOffset })
  }

  test("samplePair: inclusion probability thins records per side independently") {
    val full = MobilityGen.samplePair(ground, 16, 0.5, 1.0)
    val half = MobilityGen.samplePair(ground, 16, 0.5, 0.5)
    val nFull = full.e.count().toDouble
    val nHalf = half.e.count().toDouble
    assert(nHalf > nFull * 0.35 && nHalf < nFull * 0.65, s"$nHalf of $nFull")
    // the two sides sample different record subsets (asynchrony)
    val tsE = half.e.select("ts").collect().map(_.getLong(0)).toSet
    val tsI = half.i.select("ts").collect().map(_.getLong(0)).toSet
    assert(tsE != tsI)
  }

  test("samplePair: entities with too few records are dropped") {
    val tiny = MobilityGen.cabConfig(nEntities = 30, recordsPerEntity = 8, days = 2)
    val g = MobilityGen.ground(spark, tiny)
    val pair = MobilityGen.samplePair(g, n = 12, intersectRatio = 0.5, inclusionProb = 0.4)
    val counts = pair.e.groupBy("id").count().collect().map(_.getLong(1))
    assert(counts.forall(_ > 5))
  }

  test("samplePair: zero intersection yields empty truth") {
    val pair = MobilityGen.samplePair(ground, n = 12, intersectRatio = 0.0,
      inclusionProb = 1.0)
    assert(pair.truth.isEmpty)
    val idsE = pair.e.select("id").distinct().collect().map(_.getLong(0)).toSet
    val idsI = pair.i.select("id").distinct().collect().map(_.getLong(0) - MobilityGen.IdOffset).toSet
    assert(idsE.intersect(idsI).isEmpty)
  }
}
