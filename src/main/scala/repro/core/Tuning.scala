package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

/** Spatial-level auto-tuning (paper §3.3).
  *
  * For a fixed temporal window width, the spatial level is chosen without
  * labels by exploiting self-similarity: sample entities, compute the average
  * ratio of pair-similarity over self-similarity across candidate levels
  * (the ratio falls as detail grows and entities become distinguishable, then
  * flattens), and take the curve's knee ("Kneedle", Satopaa et al.) as the
  * level — more detail past the knee only costs comparisons.
  */
object Tuning {

  /** Knee of a monotone curve: index of the point with maximum perpendicular
    * distance to the chord between the first and last points, after
    * normalizing both axes to [0, 1]. Works for the decreasing-convex curves
    * this tuner produces; ties break to the smaller index.
    */
  def elbow(xs: Seq[Double], ys: Seq[Double]): Int = {
    require(xs.length == ys.length && xs.length >= 3, "need >= 3 points")
    val n = xs.length
    def norm(v: Seq[Double]): Seq[Double] = {
      val (lo, hi) = (v.min, v.max)
      if (hi - lo < 1e-15) v.map(_ => 0.0) else v.map(x => (x - lo) / (hi - lo))
    }
    val nx = norm(xs); val ny = norm(ys)
    val (x0, y0) = (nx.head, ny.head); val (x1, y1) = (nx.last, ny.last)
    val len = math.hypot(x1 - x0, y1 - y0)
    var best = 0; var bestD = -1.0
    for (i <- 1 until n - 1) {
      val d =
        if (len < 1e-15) 0.0
        else math.abs((x1 - x0) * (y0 - ny(i)) - (x0 - nx(i)) * (y1 - y0)) / len
      if (d > bestD + 1e-12) { bestD = d; best = i }
    }
    best
  }

  /** Runaway speed of the tuner's similarity window, km/min (the paper's). */
  private val SpeedKmPerMin = 2.0

  /** Seed of a dataset's entity sample; [[autoSpatialLevelPair]] samples
    * dataset I with `Seed + 1`.
    */
  private val Seed = 42L

  /** Average pair-over-self similarity ratio at each candidate level, for a
    * sample of entities from a single dataset crossed with a pool of others.
    * Runs in-core over the sampled records ([[LocalReference]]) — the sample
    * is small by design, and only its records are collected. The histories'
    * length norms use the paper's b = 0.5.
    */
  def selfSimilarityCurve(records: DataFrame, windowSec: Long, levels: Seq[Int],
                          sampleEntities: Int, poolEntities: Int,
                          seed: Long = Seed): Seq[(Int, Double)] = {
    val ids = records.select("id").distinct().collect().map(_.getLong(0)).sorted
    val rnd = new scala.util.Random(seed)
    val shuffled = rnd.shuffle(ids.toVector)
    val sample = shuffled.take(sampleEntities)
    val pool = shuffled.slice(sampleEntities, sampleEntities + poolEntities)
    // Only the sampled and pooled entities' records reach the driver.
    val spark = records.sparkSession
    import spark.implicits._
    val rows = records.filter(col("id").isin(sample ++ pool: _*))
      .select(Histories.RecordColumns.map(col): _*).as[(Long, Long, Double, Double)]
      .collect().toSeq

    levels.map { level =>
      val local = LocalReference.Dataset.fromRecords(rows, level, windowSec)
      // idf off: at coarse levels every entity shares every bin, idf -> 0 and
      // all scores vanish, flattening the curve the tuner needs. Spatial
      // distinguishability is what is being measured, not bin rarity.
      val cfg = Similarity.ScoreConfig(Proximity.runawayKm(windowSec, SpeedKmPerMin),
        useIdf = false)
      val ratios = for {
        u <- sample if local.histories.contains(u)
        selfSim = LocalReference.score(local, local, u, u, cfg)
        if selfSim > 0
        v <- pool if v != u && local.histories.contains(v)
      } yield math.max(0.0, LocalReference.score(local, local, u, v, cfg)) / selfSim
      val avg = if (ratios.isEmpty) 0.0 else ratios.sum / ratios.size
      (level, avg)
    }
  }

  /** Pick the spatial level for one dataset: knee of the ratio curve. */
  def autoSpatialLevel(records: DataFrame, windowSec: Long, levels: Seq[Int],
                       sampleEntities: Int = 10, poolEntities: Int = 30,
                       seed: Long = Seed): (Int, Seq[(Int, Double)]) = {
    val curve = selfSimilarityCurve(records, windowSec, levels, sampleEntities, poolEntities,
      seed)
    val idx = elbow(curve.map(_._1.toDouble), curve.map(_._2))
    (curve(idx)._1, curve)
  }

  /** Linkage-level choice across the two datasets: the paper uses the higher
    * of the two datasets' elbow levels.
    */
  def autoSpatialLevelPair(recordsE: DataFrame, recordsI: DataFrame, windowSec: Long,
                           levels: Seq[Int], sampleEntities: Int = 10,
                           poolEntities: Int = 30): Int =
    math.max(
      autoSpatialLevel(recordsE, windowSec, levels, sampleEntities, poolEntities, Seed)._1,
      autoSpatialLevel(recordsI, windowSec, levels, sampleEntities, poolEntities, Seed + 1)._1,
    )
}
