package repro.mobility

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import scala.util.Random

import repro.core.Grid

/** Synthetic mobility datasets (DESIGN S4 — stand-in for the paper's
  * proprietary *Cab* and *SM* traces).
  *
  * Entities follow piecewise-constant *anchor-stay* trajectories: each entity
  * owns a set of anchor points scattered around its home city; time is cut
  * into stays and each stay is spent at one (deterministically pseudo-random)
  * anchor; a record at time `t` is the current stay's anchor plus Gaussian
  * jitter. Consequences that matter for SLIM:
  *
  *  - an entity's own records are spatio-temporally consistent (anchors of
  *    one entity sit within its city, far below the runaway distance at the
  *    default window), so the planted true pairs are never self-alibis;
  *  - distinct entities occupy distinct anchor sets, so mobility histories
  *    are distinguishable, and cross-city (SM) or cross-town (Cab) entity
  *    pairs produce genuine alibi bin pairs.
  *
  * Generation is deterministic in (config, seed): each entity's stream is
  * derived from its own seeded [[Random]], independent of partitioning.
  *
  * The §5.1 sampling protocol is implemented by [[samplePair]]: entity
  * intersection ratio, per-record inclusion probability per side, and the
  * "more than 5 records" entity floor.
  */
object MobilityGen {

  /** One ground-truth record; datasets are sampled subsets of these. */
  final case class GenRecord(id: Long, ts: Long, lat: Double, lon: Double)

  final case class City(lat: Double, lon: Double)

  /** Generator configuration. Every trace starts at [[StartEpoch]].
    *
    * @param nEntities        ground-truth entity count
    * @param days             time span of the trace
    * @param recordsPerEntity mean record count per entity (±20% entity jitter)
    * @param cities           candidate home cities
    * @param citySigmaKm      anchor scatter around the home city center
    * @param anchorsPerEntity anchors per entity
    * @param noiseKm          per-record jitter around the trajectory
    *                         (truncated at 2 sigma so it cannot fake an alibi)
    * @param stayMinutes      mean stay duration
    * @param travelKmPerMin   movement speed between anchors; must stay below
    *                         `Proximity.MaxSpeedKmPerMin` so an entity can
    *                         never alibi against itself
    * @param seed             master seed
    */
  final case class GenConfig(
      nEntities: Int,
      days: Int,
      recordsPerEntity: Double,
      cities: Seq[City],
      citySigmaKm: Double,
      anchorsPerEntity: Int,
      noiseKm: Double,
      stayMinutes: Int,
      travelKmPerMin: Double,
      seed: Long,
  ) {
    require(nEntities > 0 && days > 0 && recordsPerEntity >= 1 && cities.nonEmpty)
    /** Anchors are capped at this radius from the city center so every
      * inter-anchor leg (at most 2x this) fits within even the shortest
      * jittered stay (0.75x stayMinutes) at travel speed.
      */
    def anchorRadiusKm: Double =
      math.min(3 * citySigmaKm, 0.35 * travelKmPerMin * stayMinutes)
  }

  private val KmPerDegLat = 111.32

  /** Epoch seconds of every trace's start: 2018-01-01T00:00Z. */
  val StartEpoch: Long = 1514764800L

  /** Cab-like profile: one dense metro area, few entities, many records each
    * (the paper's SF taxi regime, scaled down per DESIGN S4).
    */
  def cabConfig(nEntities: Int, recordsPerEntity: Double, days: Int,
                seed: Long = 17): GenConfig =
    GenConfig(nEntities, days, recordsPerEntity,
      cities = Seq(City(37.77, -122.42)),
      citySigmaKm = 8.0, anchorsPerEntity = 8, noiseKm = 0.4,
      stayMinutes = 20, travelKmPerMin = 1.5, seed = seed)

  /** SM-like profile: many cities worldwide, many entities, ~tens of records
    * each (the paper's Twitter/Foursquare regime).
    */
  def smConfig(nEntities: Int, recordsPerEntity: Double, days: Int,
               seed: Long = 19): GenConfig =
    GenConfig(nEntities, days, recordsPerEntity,
      cities = Seq(
        City(40.71, -74.01), City(51.51, -0.13), City(35.68, 139.69),
        City(48.86, 2.35), City(-33.87, 151.21), City(55.76, 37.62),
        City(41.01, 28.98), City(19.43, -99.13), City(-23.55, -46.63),
        City(37.57, 126.98), City(28.61, 77.21), City(1.35, 103.82),
        City(30.04, 31.24), City(6.52, 3.38), City(52.52, 13.41),
        City(34.05, -118.24), City(41.88, -87.63), City(43.65, -79.38),
        City(59.33, 18.07), City(-34.60, -58.38), City(39.90, 116.41),
        City(13.76, 100.50), City(25.20, 55.27), City(45.46, 9.19),
      ),
      citySigmaKm = 5.0, anchorsPerEntity = 4, noiseKm = 0.3,
      stayMinutes = 120, travelKmPerMin = 1.0, seed = seed)

  /** Deterministic anchor index of an entity's `stay`-th stay — independent
    * of any Random stream state so it can be evaluated for arbitrary stays.
    *
    * Selection is Zipf-skewed toward low anchor indices (anchor 0 is "home"):
    * human visit frequencies are heavily skewed, and the paper's
    * dominating-grid-cell LSH (§4) relies on exactly this — "it is expected
    * that most of their records are generated in the same spatial grid cell".
    * A uniform choice makes dominating cells near-ties that flip between the
    * two sampled datasets and destroys signature stability.
    */
  private def anchorIdx(id: Long, stay: Long, k: Int): Int = {
    val mix = java.lang.Long.rotateLeft(
      (id + 1) * 0x9E3779B97F4A7C15L ^ stay * 0xFF51AFD7ED558CCDL, 17)
    val u = (mix >>> 11).toDouble / (1L << 53).toDouble // uniform [0, 1)
    // inverse-CDF over weights 1/(i+1)^1.5
    val weights = Array.tabulate(k)(i => 1.0 / math.pow(i + 1, 1.5))
    val total = weights.sum
    var acc = 0.0; var i = 0
    while (i < k - 1 && acc + weights(i) < u * total) { acc += weights(i); i += 1 }
    i
  }

  /** Truncated Gaussian draw (clipped at 2 sigma). */
  private def tGauss(rnd: Random): Double =
    math.max(-2.0, math.min(2.0, rnd.nextGaussian()))

  /** Deterministic per-entity record stream. The trajectory is
    * anchor-stay-with-travel: at the start of each stay the entity moves from
    * the previous stay's anchor to the current one at `travelKmPerMin`
    * (linear interpolation), then dwells. Because travel speed is below the
    * linkage runaway speed and record noise is truncated, two records of the
    * same entity within one temporal window are always closer than the
    * runaway distance.
    */
  def entityRecords(id: Long, cfg: GenConfig): Seq[GenRecord] = {
    val rnd = new Random(cfg.seed * 0x9E3779B97F4A7C15L + id * 0xC2B2AE3D27D4EB4FL)
    val city = cfg.cities(rnd.nextInt(cfg.cities.size))
    val kmPerDegLon = KmPerDegLat * math.max(0.2, math.cos(math.toRadians(city.lat)))
    val radius = cfg.anchorRadiusKm
    val anchors = Array.fill(cfg.anchorsPerEntity) {
      val (dy, dx) = (tGauss(rnd) * cfg.citySigmaKm, tGauss(rnd) * cfg.citySigmaKm)
      val norm = math.hypot(dy, dx)
      val scale = if (norm > radius) radius / norm else 1.0
      (city.lat + dy * scale / KmPerDegLat, city.lon + dx * scale / kmPerDegLon)
    }
    val spanSec = cfg.days.toLong * 86400L
    val staySec = math.max(300L, (cfg.stayMinutes * 60 * (0.75 + rnd.nextDouble() * 0.5)).toLong)
    val stayPhase = rnd.nextLong().abs % staySec
    val n = math.max(1, (cfg.recordsPerEntity * (0.8 + rnd.nextDouble() * 0.4)).round.toInt)
    val times = Array.fill(n)(rnd.nextLong().abs % spanSec).sorted

    def positionAt(dt: Long): (Double, Double) = {
      val t = dt + stayPhase
      val stay = t / staySec
      val cur = anchors(anchorIdx(id, stay, cfg.anchorsPerEntity))
      val prev = anchors(anchorIdx(id, stay - 1, cfg.anchorsPerEntity))
      val tIn = t % staySec
      val d = Grid.haversineKm(prev._1, prev._2, cur._1, cur._2)
      val travelSec = if (d <= 1e-9) 0.0 else d / cfg.travelKmPerMin * 60.0
      if (tIn >= travelSec) cur
      else {
        val f = tIn / travelSec
        (prev._1 + (cur._1 - prev._1) * f, prev._2 + (cur._2 - prev._2) * f)
      }
    }

    times.toIndexedSeq.map { dt =>
      val (la, lo) = positionAt(dt)
      val noiseRnd = new Random(id * 0x2545F4914F6CDD1DL ^ dt * 0x9E3779B97F4A7C15L)
      GenRecord(id, StartEpoch + dt,
        math.max(-89.99, math.min(89.99, la + tGauss(noiseRnd) * cfg.noiseKm / KmPerDegLat)),
        lo + tGauss(noiseRnd) * cfg.noiseKm / kmPerDegLon)
    }
  }

  /** Ground-truth trace: `(id, ts, lat, lon)` for all entities. */
  def ground(spark: SparkSession, cfg: GenConfig): DataFrame = {
    import spark.implicits._
    spark.range(cfg.nEntities).as[Long]
      .flatMap(id => entityRecords(id, cfg))
      .toDF()
  }

  /** Result of the §5.1 sampling protocol.
    *
    * @param e        first location dataset (ids unchanged)
    * @param i        second dataset, ids offset by [[IdOffset]] (anonymized —
    *                 the pipeline must not rely on cross-dataset id equality)
    * @param truth    ground-truth mapping u -> v for entities present (with
    *                 more than 5 records) in both datasets
    * @param pivotIds surviving entity ids of dataset e (hit-precision base)
    */
  final case class SampledPair(e: DataFrame, i: DataFrame,
                               truth: Map[Long, Long], pivotIds: Seq[Long])

  /** Id offset applied to the second dataset's entities. */
  val IdOffset: Long = 1000000L

  private val MinRecords = 5 // §5.1: a sampled entity with at most this many records is dropped
  private val SeedE = 101L   // per-record inclusion draws of dataset E
  private val SeedI = 202L   // and of dataset I

  /** Sample two datasets from a ground trace per §5.1.
    *
    * Dataset E draws entities [0, n); dataset I draws [n-common, 2n-common)
    * where `common = round(intersectRatio * n)` — so their overlap is exactly
    * the requested ratio of each side's entity count. Each record is then
    * kept independently per side with `inclusionProb` (fixed, different
    * seeds — services are asynchronous), and entities with at most 5
    * records are dropped.
    */
  def samplePair(ground: DataFrame, n: Int, intersectRatio: Double,
                 inclusionProb: Double): SampledPair = {
    require(intersectRatio >= 0 && intersectRatio <= 1)
    require(inclusionProb > 0 && inclusionProb <= 1)
    val common = math.round(intersectRatio * n).toInt
    val loI = n - common; val hiI = 2L * n - common

    def side(lo: Long, hi: Long, seed: Long): DataFrame = {
      val kept = ground
        .filter(col("id") >= lo && col("id") < hi)
        .filter(rand(seed) < inclusionProb)
      val eligible = kept.groupBy("id").agg(count(lit(1)).as("nr"))
        .filter(col("nr") > MinRecords).select("id")
      kept.join(eligible, "id")
    }

    val e = side(0, n, SeedE).cache()
    val iRaw = side(loI, hiI, SeedI)
    val i = iRaw.withColumn("id", col("id") + IdOffset).cache()

    val idsE = e.select("id").distinct().collect().map(_.getLong(0)).toSet
    val idsI = i.select("id").distinct().collect().map(_.getLong(0)).toSet
    val truth = idsE
      .filter(u => u >= loI && u < n && idsI.contains(u + IdOffset))
      .map(u => u -> (u + IdOffset)).toMap
    SampledPair(e, i, truth, idsE.toSeq.sorted)
  }
}
