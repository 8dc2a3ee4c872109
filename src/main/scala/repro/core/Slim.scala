package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import scala.jdk.CollectionConverters._

/** End-to-end SLIM pipeline (paper Alg. 1 + §3.2 + §4).
  *
  * Stages, all DataFrame transformations until the per-edge reduction:
  *  1. mobility histories + BM25 length norms per dataset ([[prepare]]):
  *     one shuffle partitions the histories by window, which stage 3 reuses;
  *     one collect of the per-entity history sizes (driver memory O(nE))
  *     gives the counts and the norms;
  *  2. candidate pairs from dominating-cell banding LSH, collected to the
  *     driver; brute force has no candidate list, since every pair sharing a
  *     window is scored;
  *  3. per-window scoring ([[scorePairs]]): each window of the two cached
  *     histories is cogrouped, its idf counted and every cross pair (the LSH
  *     candidates only, if any) scored by one primitive kernel; the partial
  *     sums are added up by pair and collected once, and the driver divides
  *     by the length norms;
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
    * @param nCandidates      candidate pairs entering the similarity join:
    *                         the LSH candidates, or for brute force nE·nI,
    *                         counted from stage 1 and never materialized
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
    * @param histories  leaf bins from [[Histories.build]], partitioned by
    *                   window and cached until [[unpersist]]; stage 3 counts
    *                   the idf (Eq. 3) per window from them
    * @param lens       BM25 length norms from [[Histories.lengthNorm]], over a
    *                   local DataFrame of the collected history sizes
    * @param nEntities  number of entities with at least one record (0 for an
    *                   empty dataset)
    * @param meanLength mean history length avg|H| (bins per entity), Eq. 2's
    *                   denominator; 0 for an empty dataset
    * @param minWin     first window any entity occupies (Long.MaxValue when
    *                   empty)
    * @param maxWin     last window any entity occupies (Long.MinValue when
    *                   empty)
    */
  final case class Prepared(histories: DataFrame, lens: DataFrame,
                            nEntities: Long, meanLength: Double, minWin: Long, maxWin: Long) {
    def unpersist(): Unit = histories.unpersist()
  }

  /** Stage 1 for one dataset: its histories and its length norms (Eq. 2).
    * One Spark action: a collect of the per-entity history sizes
    * `(id, nbins, minWin, maxWin)`, from which the driver derives the entity
    * count, the mean history length and the window range. Driver memory is
    * O(nE).
    */
  def prepare(records: DataFrame, cfg: SlimConfig): Prepared = {
    val hist = Histories.build(records, cfg.level, cfg.windowSec).cache()
    val sizesDf = Histories.historySizes(hist)
    val sizes = sizesDf.collect()
    val n = sizes.length.toLong
    val mean = if (n == 0) 0.0 else sizes.map(_.getLong(1)).sum.toDouble / n
    val local = hist.sparkSession.createDataFrame(sizes.toSeq.asJava, sizesDf.schema)
    Prepared(hist, Histories.lengthNorm(local, cfg.bParam, mean),
      n, mean, sizes.map(_.getLong(2)).minOption.getOrElse(Long.MaxValue),
      sizes.map(_.getLong(3)).maxOption.getOrElse(Long.MinValue))
  }

  /** Cross product of the two entity id sets: every pair brute force
    * considers. [[link]] does not build it (the per-window scorer scores the
    * same pairs); it stays as a candidate list for [[Similarity.scoreEdges]].
    */
  def allPairsCandidates(recordsE: DataFrame, recordsI: DataFrame): DataFrame = {
    val e = recordsE.select(col("id").as("uid")).distinct()
    val i = recordsI.select(col("id").as("vid")).distinct()
    e.crossJoin(i)
  }

  /** Stage 3: every pair of `e` and `i` entities that shares a window (only
    * the `candidates`, if given) with its score and cost counters, from one
    * collect of [[Similarity.scoreWindows]]. The candidates reach the tasks
    * as a broadcast index. The norms are collected from the local `lens`
    * (no Spark job) and applied on the driver: `raw / (L(u) L(v))`.
    */
  def scorePairs(e: Prepared, i: Prepared, cfg: Similarity.ScoreConfig,
                 candidates: Option[Array[(Long, Long)]] = None): Array[Similarity.PairScore] = {
    val sc = e.histories.sparkSession.sparkContext
    val index = candidates.map(c => sc.broadcast(Similarity.candidateIndex(c)))
    val rows =
      try Similarity.scoreWindows(e.histories, i.histories, e.nEntities, i.nEntities, cfg, index)
        .collect()
      finally index.foreach(_.destroy())
    def norms(p: Prepared) =
      p.lens.select("id", "lnorm").collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
    val (lu, lv) = (norms(e), norms(i))
    rows.map { r =>
      val (u, v, raw) = (r.getLong(0), r.getLong(1), r.getDouble(2))
      Similarity.PairScore(u, v, if (cfg.useNorm) raw / (lu(u) * lv(v)) else raw,
        r.getLong(3), r.getLong(4))
    }
  }

  /** Run SLIM over two location datasets `(id, ts, lat, lon)`.
    *
    * Spark actions: one per dataset in [[prepare]], the collect of the LSH
    * candidates (LSH only), and one collect of the scored pairs. When a side
    * is empty there is no pair to score: stages 2–3 are skipped and the
    * result has no candidates, comparisons, matches or links.
    */
  def link(spark: SparkSession, recordsE: DataFrame, recordsI: DataFrame,
           cfg: SlimConfig): SlimResult = {
    val t0 = System.nanoTime()

    val prepE = prepare(recordsE, cfg)
    val prepI = prepare(recordsI, cfg)
    val bothSides = prepE.nEntities > 0 && prepI.nEntities > 0 // else no pair to score

    val lshCandidates = cfg.lsh.filter(_ => bothSides).map { l =>
      // qidx = floor(ts / (windowSec * step)) = floorDiv(win, step), so the
      // aligned signature range comes from the windows stage 1 found.
      val qMin = math.floorDiv(math.min(prepE.minWin, prepI.minWin), l.stepWindows.toLong)
      val qMax = math.floorDiv(math.max(prepE.maxWin, prepI.maxWin), l.stepWindows.toLong)
      val (_, r) = Lsh.bandsFor((qMax - qMin + 1).toInt, l.t)
      Lsh.candidates(Lsh.signatures(recordsE, l, cfg.windowSec),
        Lsh.signatures(recordsI, l, cfg.windowSec), qMin, r, l.numBuckets)
        .collect().map(c => (c.getLong(0), c.getLong(1)))
    }
    val nCandidates = lshCandidates.fold(prepE.nEntities * prepI.nEntities)(_.length.toLong)

    val scored = if (!bothSides) Array.empty[Similarity.PairScore]
      else scorePairs(prepE, prepI, cfg.scoreConfig, lshCandidates)
    val comparisons = scored.iterator.map(_.comparisons).sum
    val alibiEntityPairs = scored.count(_.alibis > 0).toLong
    val edges = scored.iterator.filter(_.score > 0)
      .map(p => Matching.Edge(p.uid, p.vid, p.score)).toSeq

    val matched = Matching.greedy(edges)
    val (threshold, gmm) = Gmm.stopThresholdWithFit(matched.map(_.w).toArray)
    val links = matched.filter(_.w >= threshold).map(e => (e.u, e.v, e.w))

    val elapsedMs = (System.nanoTime() - t0) / 1000000L
    prepE.unpersist(); prepI.unpersist()
    SlimResult(links, matched, threshold, gmm, nCandidates, comparisons, alibiEntityPairs,
      elapsedMs)
  }
}
