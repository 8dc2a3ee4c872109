package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

import scala.util.hashing.MurmurHash3

/** LSH over mobility histories (paper §4).
  *
  * Each history is summarized into a *signature*: for consecutive
  * non-overlapping query windows (each spanning `stepWindows` leaf windows)
  * the *dominating grid cell* — the cell holding most of the entity's records
  * in that query window, at a configurable (usually coarser) spatial level.
  * Query windows with no records hold a placeholder, which is omitted from
  * hashing.
  *
  * The banding technique splits a signature of length `s` into `b` bands of
  * `r` rows and hashes every band into one of `numBuckets` buckets; two
  * entities become a candidate pair when any band lands in the same bucket.
  * For a target signature-similarity threshold `t`, `b = e^{W(-s ln t)}`
  * where `W` is the Lambert W function (from `t = (1/b)^{b/s}`).
  */
object Lsh {

  /** LSH configuration.
    *
    * @param t           signature-similarity threshold for candidacy
    * @param sigLevel    spatial level of the dominating cells
    * @param stepWindows query window span, in leaf windows
    * @param numBuckets  hash buckets per band
    */
  final case class LshConfig(
      t: Double = 0.6,
      sigLevel: Int = 16,
      stepWindows: Int = 48,
      numBuckets: Int = 4096,
  ) {
    require(t > 0 && t <= 1, s"threshold t=$t out of (0,1]")
    require(stepWindows > 0 && numBuckets > 0)
  }

  /** Principal branch of the Lambert W function for x >= 0 (all we need:
    * x = -s ln t with t in (0,1]). Newton iteration on w e^w = x.
    */
  def lambertW(x: Double): Double = {
    require(x >= 0, s"lambertW domain here is x >= 0, got $x")
    if (x == 0) return 0.0
    var w = if (x > math.E) math.log(x) - math.log(math.log(x)) else math.log1p(x)
    var i = 0
    while (i < 64) {
      val ew = math.exp(w)
      val f = w * ew - x
      val wNext = w - f / (ew * (w + 1) - (w + 2) * f / (2 * w + 2)) // Halley
      if (math.abs(wNext - w) < 1e-14 * math.max(1.0, math.abs(wNext))) return wNext
      w = wNext; i += 1
    }
    w
  }

  /** Number of bands `b` and rows-per-band `r` for signature length `sigLen`
    * and similarity threshold `t` (paper: `b = e^{W(-s ln t)}`, `r = s/b`,
    * both clamped to integers covering the signature).
    */
  def bandsFor(sigLen: Int, t: Double): (Int, Int) = {
    require(sigLen > 0)
    val x = -sigLen * math.log(t)
    val bReal = math.exp(lambertW(x))
    val b = math.max(1, math.min(sigLen, math.round(bReal).toInt))
    val r = math.max(1, math.ceil(sigLen.toDouble / b).toInt)
    (math.ceil(sigLen.toDouble / r).toInt, r)
  }

  /** Dominating-cell signature entries straight from the records — the
    * DataFrame equivalent of querying the mobility history tree per query
    * window. Output: `(id, qidx, cell)`; query windows with no records simply
    * have no row (the placeholder).
    *
    * Ties on the record count break toward the smallest cell id, so the
    * result is deterministic and matches `HistoryTree.dominatingCell`, the
    * in-core oracle under `src/test` (DESIGN S2).
    */
  def signatures(records: DataFrame, cfg: LshConfig, windowSec: Long): DataFrame = {
    val qSec = windowSec * cfg.stepWindows
    records
      .select(
        col("id"),
        floor(col("ts") / qSec).cast("long").as("qidx"),
        Histories.cellUdf(cfg.sigLevel)(col("lat"), col("lon")).as("cell"),
      )
      .groupBy("id", "qidx", "cell")
      .agg(count(lit(1)).as("cnt"))
      // argmax by (cnt, -cell): highest count, smallest cell id on ties
      .groupBy("id", "qidx")
      .agg(max(struct(col("cnt"), (-col("cell")).as("negCell"))).as("top"))
      .select(col("id"), col("qidx"), (-col("top.negCell")).as("cell"))
  }

  /** Hash every band of every signature: `(id, band, bucket)`. The band of a
    * query index is `floor((qidx - qMin) / r)`; a band's bucket is a Murmur3
    * hash of its ordered (position, cell) entries, placeholders omitted.
    * Bands with no entries emit no row (an all-placeholder band never
    * matches, per the paper's omission rule).
    */
  def bandHashes(sig: DataFrame, qMin: Long, r: Int, numBuckets: Int): DataFrame = {
    val hashUdf = udf { (entries: Seq[Row]) =>
      val canon = entries.map(e => (e.getLong(0), e.getLong(1))).sorted
      val h = MurmurHash3.orderedHash(canon, 0x5115)
      ((h % numBuckets) + numBuckets) % numBuckets
    }
    sig
      .select(col("id"),
        floor((col("qidx") - qMin) / r).cast("long").as("band"),
        col("qidx"), col("cell"))
      .groupBy("id", "band")
      .agg(collect_list(struct(col("qidx"), col("cell"))).as("entries"))
      .select(col("id"), col("band"), hashUdf(col("entries")).as("bucket"))
  }

  /** Candidate entity pairs: distinct (uid, vid) that share a (band, bucket).
    * `qMin` must be the global minimum query index across *both* datasets so
    * signature positions align (the paper aligns queries across histories).
    */
  def candidates(sigE: DataFrame, sigI: DataFrame, qMin: Long, r: Int,
                 numBuckets: Int): DataFrame = {
    val bE = bandHashes(sigE, qMin, r, numBuckets).withColumnRenamed("id", "uid")
    val bI = bandHashes(sigI, qMin, r, numBuckets).withColumnRenamed("id", "vid")
    bE.join(bI, Seq("band", "bucket")).select("uid", "vid").distinct()
  }
}
