package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** End-to-end SLIM pipeline (paper Alg. 1 + §3.2 + §4).
  *
  * Stages, all DataFrame transformations until the per-edge reduction:
  *  1. mobility histories + idf + BM25 length norms per dataset ([[prepare]]);
  *  2. candidate pairs — dominating-cell banding LSH, or the full cross
  *     product for brute force;
  *  3. candidate-pair similarity join with MNN/MFN window scoring;
  *  4. (driver) greedy maximum-weight bipartite matching;
  *  5. (driver) GMM stop-threshold over matched edge weights; links above the
  *     threshold are the output.
  */
object Slim {

  /** Full pipeline configuration. Defaults mirror the paper's (§5.1): 15-min
    * windows, b = 0.5, max speed 2 km/min. The default spatial level is 14 —
    * our grid's ~equivalent of the paper's S2 level 12 (DESIGN S1).
    */
  final case class SlimConfig(
      level: Int = 14,
      windowSec: Long = 900,
      bParam: Double = 0.5,
      speedKmPerMin: Double = 2.0,
      floor: Double = Proximity.DefaultFloor,
      pairing: Similarity.Pairing = Similarity.MnnWithMfn,
      useIdf: Boolean = true,
      useNorm: Boolean = true,
      lsh: Option[Lsh.LshConfig] = None,
  ) {
    def scoreConfig: Similarity.ScoreConfig = Similarity.ScoreConfig(
      runawayKm = Proximity.runawayKm(windowSec, speedKmPerMin),
      floor = floor, pairing = pairing, useIdf = useIdf, useNorm = useNorm)
  }

  /** Pipeline output plus the cost/diagnostic counters the evaluation plots.
    *
    * @param links            final linkage (u, v, weight), above threshold
    * @param matched          full matching before thresholding
    * @param threshold        GMM stop threshold (-inf when degenerate)
    * @param gmm              the fitted mixture, when one was fitted
    * @param nCandidates      candidate pairs entering the similarity join
    * @param comparisons      bin-pair distance computations performed (the
    *                         paper's "pairwise record comparisons" cost)
    * @param alibiEntityPairs scored pairs containing >= 1 alibi bin pair
    * @param elapsedMs        wall time of stages 1–5, from building the
    *                         histories to the thresholded links
    */
  final case class SlimResult(
      links: Seq[(Long, Long, Double)],
      matched: Seq[Matching.Edge],
      threshold: Double,
      gmm: Option[Gmm.Gmm2],
      nCandidates: Long,
      comparisons: Long,
      alibiEntityPairs: Long,
      elapsedMs: Long,
  )

  /** One dataset after stage 1, ready for the similarity join.
    *
    * @param histories leaf bins from [[Histories.build]], cached until
    *                  [[unpersist]]
    * @param bins      idf-weighted bins per window from [[Histories.binsByWindow]]
    * @param lens      BM25 length norms from [[Histories.lengthNorm]]
    */
  final case class Prepared(histories: DataFrame, bins: DataFrame, lens: DataFrame) {
    def unpersist(): Unit = histories.unpersist()
  }

  /** Stage 1 for one dataset: its histories, per-window bins carrying the
    * dataset's own idf (Eq. 3), and its length norms (Eq. 2).
    */
  def prepare(records: DataFrame, cfg: SlimConfig): Prepared = {
    val hist = Histories.build(records, cfg.level, cfg.windowSec).cache()
    Prepared(hist,
      Histories.binsByWindow(hist, Histories.idf(hist, Histories.nEntities(hist))),
      Histories.lengthNorm(hist, cfg.bParam))
  }

  /** Cross product of the two entity id sets — brute-force candidates. */
  def allPairsCandidates(recordsE: DataFrame, recordsI: DataFrame): DataFrame = {
    val e = recordsE.select(col("id").as("uid")).distinct()
    val i = recordsI.select(col("id").as("vid")).distinct()
    e.crossJoin(i)
  }

  /** Run SLIM over two location datasets `(id, ts, lat, lon)`. */
  def link(spark: SparkSession, recordsE: DataFrame, recordsI: DataFrame,
           cfg: SlimConfig): SlimResult = {
    val t0 = System.nanoTime()

    val prepE = prepare(recordsE, cfg)
    val prepI = prepare(recordsI, cfg)

    val candidates = cfg.lsh match {
      case Some(l) => Lsh.candidatePairs(recordsE, recordsI, l, cfg.windowSec)._1
      case None    => allPairsCandidates(recordsE, recordsI)
    }
    val cand = candidates.cache()
    val nCandidates = cand.count()

    val scored = Similarity.scoreEdges(prepE.bins, prepI.bins, cand, prepE.lens, prepI.lens,
      cfg.scoreConfig).cache()
    val stats = scored.agg(
      coalesce(sum("comparisons"), lit(0L)).as("comps"),
      coalesce(sum(when(col("alibis") > 0, 1L).otherwise(0L)), lit(0L)).as("alibiPairs"),
    ).first()

    val edges = scored.filter(col("score") > 0)
      .select("uid", "vid", "score").collect()
      .map(r => Matching.Edge(r.getLong(0), r.getLong(1), r.getDouble(2))).toSeq

    val matched = Matching.greedy(edges)
    val (threshold, gmm) = Gmm.stopThresholdWithFit(matched.map(_.w).toArray)
    val links = matched.filter(_.w >= threshold).map(e => (e.u, e.v, e.w))

    val elapsedMs = (System.nanoTime() - t0) / 1000000L
    scored.unpersist(); cand.unpersist(); prepE.unpersist(); prepI.unpersist()
    SlimResult(links, matched, threshold, gmm, nCandidates,
      stats.getLong(0), stats.getLong(1), elapsedMs)
  }
}
