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
  *
  * Two paths compute the candidates. [[candidatePairs]], the production
  * path, groups both datasets' records once by entity and derives each
  * signature and its band buckets in memory. [[signatures]], [[bandHashes]]
  * and [[candidates]] are the reference: the same steps as DataFrame stages,
  * which the benchmark's staged trace times and the tests compare against.
  * Both call [[dominatingCell]] and [[bandBucket]], so the dominating-cell
  * rule and the band hash are defined once.
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

  /** The dominating cell among one query window's `(cell, count)` entries:
    * the highest count, the smallest cell id on ties, so the result is
    * deterministic and matches `HistoryTree.dominatingCell`, the in-core
    * oracle under `src/test` (DESIGN S2). `counts` must not be empty.
    */
  def dominatingCell(counts: Iterable[(Long, Long)]): Long =
    counts.reduce((a, b) => if (a._2 > b._2 || (a._2 == b._2 && a._1 < b._1)) a else b)._1

  /** One entity's signature from its `(qidx, cell)` record observations: the
    * `(qidx, dominating cell)` of every query window holding a record, in
    * qidx order. Query windows with no record have no entry (the placeholder).
    */
  def signatureOf(obs: Iterator[(Long, Long)]): Seq[(Long, Long)] =
    obs.toSeq.groupMapReduce(identity)(_ => 1L)(_ + _)
      .groupMap(_._1._1) { case ((_, cell), cnt) => (cell, cnt) }
      .map { case (q, counts) => (q, dominatingCell(counts)) }
      .toSeq.sortBy(_._1)

  /** The bucket of one band: a Murmur3 hash (seed `0x5115`) of the band's
    * `(qidx, cell)` entries in sorted order, modulo `numBuckets`.
    */
  def bandBucket(entries: Seq[(Long, Long)], numBuckets: Int): Int = {
    val h = MurmurHash3.orderedHash(entries.sorted, 0x5115)
    ((h % numBuckets) + numBuckets) % numBuckets
  }

  /** `(band, bucket)` of every band of one signature `(qidx, cell)` that holds
    * an entry. The band of a query index is `floorDiv(qidx - qMin, r)`.
    */
  def bandBuckets(sig: Seq[(Long, Long)], qMin: Long, r: Int,
                  numBuckets: Int): Iterable[(Long, Int)] =
    sig.groupBy { case (q, _) => math.floorDiv(q - qMin, r.toLong) }
      .map { case (band, entries) => (band, bandBucket(entries, numBuckets)) }

  /** Candidate pairs of both datasets in one pass, collected: what
    * [[Slim.link]] runs. Equal to the distinct rows of [[candidates]] over
    * each dataset's [[signatures]].
    *
    * The records of both datasets, tagged with their side
    * ([[Histories.tagSides]]), are grouped once by `(side, id)`; each entity's
    * signature ([[signatureOf]]) and band buckets ([[bandBuckets]]) are
    * computed in memory, and its `(band, bucket, side, id)` rows are
    * collected. The driver groups them by `(band, bucket)` and emits every
    * E×I pair of a bucket once, however many buckets the pair shares. Two
    * Spark jobs: the shuffle and the collect. Driver memory is the number of
    * bands over all entities.
    *
    * @param qMin the smallest query index across both datasets
    * @param r    rows per band, from [[bandsFor]]
    */
  def candidatePairs(recordsE: DataFrame, recordsI: DataFrame, cfg: LshConfig, windowSec: Long,
                     qMin: Long, r: Int): Array[(Long, Long)] = {
    val spark = recordsE.sparkSession
    import spark.implicits._
    val qSec = windowSec * cfg.stepWindows
    val numBuckets = cfg.numBuckets
    Histories.tagSides(recordsE, recordsI)
      .select(col("side"), col("id"), floor(col("ts") / qSec).cast("long").as("qidx"),
        Histories.cellUdf(cfg.sigLevel)(col("lat"), col("lon")).as("cell"))
      .as[(Int, Long, Long, Long)]
      .groupByKey(x => (x._1, x._2))
      .flatMapGroups { (entity, rows) =>
        val sig = signatureOf(rows.map(x => (x._3, x._4)))
        bandBuckets(sig, qMin, r, numBuckets).map { case (band, bucket) =>
          (band, bucket, entity._1, entity._2)
        }
      }
      .collect()
      .groupBy(x => (x._1, x._2))
      .valuesIterator
      .flatMap { members =>
        val (es, is) = members.partition(_._3 == Histories.SideE)
        for (u <- es.iterator; v <- is.iterator) yield (u._4, v._4)
      }
      .distinct
      .toArray
  }

  /** Dominating-cell signature entries straight from the records — the
    * DataFrame equivalent of querying the mobility history tree per query
    * window, and the reference for [[candidatePairs]]' in-memory
    * [[signatureOf]]. Output: `(id, qidx, cell)`; query windows with no
    * records simply have no row (the placeholder). The cell of a query
    * window is [[dominatingCell]] of its per-cell record counts.
    */
  def signatures(records: DataFrame, cfg: LshConfig, windowSec: Long): DataFrame = {
    val qSec = windowSec * cfg.stepWindows
    val dominating = udf((counts: Seq[Row]) =>
      dominatingCell(counts.map(c => (c.getLong(0), c.getLong(1)))))
    records
      .select(
        col("id"),
        floor(col("ts") / qSec).cast("long").as("qidx"),
        Histories.cellUdf(cfg.sigLevel)(col("lat"), col("lon")).as("cell"),
      )
      .groupBy("id", "qidx", "cell")
      .agg(count(lit(1)).as("cnt"))
      .groupBy("id", "qidx")
      .agg(collect_list(struct(col("cell"), col("cnt"))).as("counts"))
      .select(col("id"), col("qidx"), dominating(col("counts")).as("cell"))
  }

  /** Hash every band of every signature: `(id, band, bucket)`. The band of a
    * query index is `floor((qidx - qMin) / r)`; a band's bucket is
    * [[bandBucket]] of its (position, cell) entries, placeholders omitted.
    * Bands with no entries emit no row (an all-placeholder band never
    * matches, per the paper's omission rule).
    */
  def bandHashes(sig: DataFrame, qMin: Long, r: Int, numBuckets: Int): DataFrame = {
    val hashUdf = udf((entries: Seq[Row]) =>
      bandBucket(entries.map(e => (e.getLong(0), e.getLong(1))), numBuckets))
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
    * The reference composition of [[signatures]], [[bandHashes]] and a join;
    * [[Slim.link]] runs [[candidatePairs]] instead.
    */
  def candidates(sigE: DataFrame, sigI: DataFrame, qMin: Long, r: Int,
                 numBuckets: Int): DataFrame = {
    val bE = bandHashes(sigE, qMin, r, numBuckets).withColumnRenamed("id", "uid")
    val bI = bandHashes(sigI, qMin, r, numBuckets).withColumnRenamed("id", "vid")
    bE.join(bI, Seq("band", "bucket")).select("uid", "vid").distinct()
  }
}
