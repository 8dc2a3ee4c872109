package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

import scala.collection.mutable

/** End-to-end SLIM pipeline (paper Alg. 1 + §3.2 + §4).
  *
  * A link plans no query over its bins: both datasets are binned into one
  * cached RDD ([[Histories.binSides]]), and each reduction whose result the
  * driver needs is a pass over it, done per partition on the executors and
  * finished on the driver, so no shuffle only feeds a collect:
  *  1. mobility histories + BM25 length norms of both datasets at once
  *     ([[prepare]]): one shuffle partitions both datasets' histories by
  *     window, which stage 3 reuses, and one pass over them, a window at a
  *     time, counts each entity's bins (and with LSH its records per query
  *     window and signature cell) per partition; the driver adds up the
  *     counts into the norms;
  *  2. candidate pairs from dominating-cell banding LSH ([[lshCandidates]]),
  *     on the driver: every signature, its band buckets and the query
  *     windows' common range come from stage 1's signature counts, and E is
  *     paired with I per bucket. No Spark job, and no second pass over the
  *     records. Brute force has no candidate list, since every pair sharing
  *     a window is scored;
  *  3. per-window scoring ([[scorePairs]]): a second pass reads each
  *     partition's windows of both datasets, counts each window's idf and
  *     scores every cross pair (the LSH candidates only, if any) with one
  *     primitive kernel; each partition sums its windows' partials per pair,
  *     and the driver adds up the partitions' sums and divides by the length
  *     norms;
  *  4. (driver) greedy maximum-weight bipartite matching;
  *  5. (driver) GMM stop-threshold over matched edge weights; links above the
  *     threshold are the output.
  *
  * So a warm link runs 2 Spark jobs, on brute force and on LSH alike: stage
  * 1's collect, which also runs the binning's shuffle and fills the cache,
  * and stage 3's collect of the scored pairs, one stage over the cache.
  */
object Slim {

  /** BM25 length-normalisation weight b of the norms L(u) (Eq. 2), the paper's (§5.1). */
  val BParam: Double = 0.5

  /** Full pipeline configuration. Defaults mirror the paper's (§5.1): 15-min
    * windows. b ([[BParam]]), the max speed α ([[Proximity.MaxSpeedKmPerMin]])
    * and the alibi floor ([[Proximity.DefaultFloor]]) are constants, the
    * paper's. The default spatial level is 14 — our grid's ~equivalent of the
    * paper's S2 level 12 (DESIGN S1).
    */
  final case class SlimConfig(
      level: Int = 14,
      windowSec: Long = 900,
      pairing: Similarity.Pairing = Similarity.MnnWithMfn,
      useIdf: Boolean = true,
      useNorm: Boolean = true,
      lsh: Option[Lsh.LshConfig] = None,
  ) {
    /** Always [[BParam]]; readable because perfbench's reference norms read it. */
    def bParam: Double = BParam

    def scoreConfig: Similarity.ScoreConfig = Similarity.ScoreConfig(
      runawayKm = Proximity.runawayKm(windowSec, Proximity.MaxSpeedKmPerMin),
      pairing = pairing, useIdf = useIdf, useNorm = useNorm)
  }

  /** Pipeline output plus the cost/diagnostic counters the evaluation plots.
    *
    * @param links            final linkage (u, v, weight), above threshold
    * @param matched          full matching before thresholding
    * @param scores           the score of every pair the link scored: each
    *                         pair sharing a window (brute force) or each
    *                         such LSH candidate, whatever its sign
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
      scores: Map[(Long, Long), Double],
      threshold: Double,
      gmm: Option[Gmm.Gmm2],
      nCandidates: Long,
      comparisons: Long,
      alibiEntityPairs: Long,
      elapsedMs: Long,
  )

  /** One dataset's stage 1 on the driver: the BM25 length norm L(u) (Eq. 2)
    * of every entity with at least one record, bit for bit the `lnorm` of
    * [[Histories.lengthNorm]] of the dataset's histories.
    *
    * The production path builds it for both datasets at once ([[prepare]]).
    * The per-dataset reference is [[Histories.build]] of its records with
    * [[Histories.idf]] and [[Histories.lengthNorm]]: the tests and the
    * benchmark's staged trace compare against those, and its side of
    * [[Stage1.bins]] at the scoring level, the idf stage 3 counts from it
    * and `norms` equal them.
    */
  final case class Prepared(norms: Map[Long, Double]) {
    /** Number of entities with at least one record (0 for an empty dataset). */
    def nEntities: Long = norms.size.toLong
  }

  /** Stage 1 of both datasets, from one binning.
    *
    * @param e         dataset E
    * @param i         dataset I
    * @param bins      both datasets' histories `(side, id, win, cell, cnt)`
    *                  from [[Histories.binSides]] at `binLevel`: partitioned
    *                  by window, each partition one block sorted by window,
    *                  and read from the cache until [[unpersist]]. Stages 1
    *                  and 3 are passes over it
    * @param level     the scoring level
    * @param binLevel  the finer of the scoring and the signature level
    * @param sigCounts with LSH, partial record counts
    *                  `(side, id, qidx, sigCell, cnt)` at the signature
    *                  level, each partition's own: the input of
    *                  [[Lsh.candidatePairs]], and their `qidx` range is the
    *                  signatures' alignment ([[lshCandidates]]). At most one
    *                  row per cached bin, as each `(side, id, qidx, sigCell)`
    *                  has a row in at most min(step, P) of the P partitions
    *                  (a query window spans `step` windows, and each window
    *                  is in one partition). Empty without LSH.
    */
  final case class Stage1(e: Prepared, i: Prepared, bins: RDD[Histories.Block], level: Int,
                          binLevel: Int, sigCounts: Seq[(Int, Long, Long, Long, Long)]) {
    /** Releases the cached histories of both datasets. */
    def unpersist(): Unit = bins.unpersist()
  }

  /** Stage 1 for both datasets: their histories and their length norms
    * (Eq. 2), and with LSH the signature counts. The two record sets are
    * binned together ([[Histories.binSides]]): one shuffle by window and one
    * cache serve both. One pass over the bins ([[Stage1.bins]]) reads each
    * partition a window at a time ([[Histories.windows]]) and counts each
    * entity's bins at the scoring level ([[Histories.cellsAt]]), the view
    * stage 3 scores; the driver adds up the partitions' `(side, id, nbins)`
    * counts (exact) into each side's mean history length and norms. Its
    * collect is one Spark job, which also runs the binning's shuffle and
    * fills the cache.
    *
    * With LSH the same action collects each partition's record counts per
    * `(side, id, qidx, sigCell)` ([[Stage1.sigCounts]]): `qidx` is
    * `floorDiv(win, step)` and `sigCell` the bin cell's [[Grid.ancestorAt]]
    * the signature level. The histories are binned at the finer of the two
    * levels.
    *
    * Driver memory is O((nE + nI) P) for P partitions, plus with LSH at most
    * one signature count per cached bin. The caller releases the cache with
    * [[Stage1.unpersist]]; a failed collect releases it here.
    */
  def prepare(recordsE: DataFrame, recordsI: DataFrame, cfg: SlimConfig): Stage1 = {
    val level = cfg.level
    val binLevel = cfg.lsh.fold(level)(l => math.max(level, l.sigLevel))
    val bins = Histories.binSides(recordsE, recordsI, binLevel, cfg.windowSec)
    val sig = cfg.lsh.map(l => (l.sigLevel, l.stepWindows.toLong))
    val parts = try bins.mapPartitions { blocks =>
      val nbins = mutable.HashMap.empty[(Int, Long), Long]
      val counts = mutable.HashMap.empty[(Int, Long, Long, Long), Long]
      for ((win, es, is) <- Histories.windows(blocks);
           (s, side) <- Seq(Histories.SideE -> es, Histories.SideI -> is)) {
        for ((id, _) <- Histories.cellsAt(side, binLevel, level))
          nbins((s, id)) = nbins.getOrElse((s, id), 0L) + 1
        for ((sigLevel, step) <- sig; (_, id, _, cell, cnt) <- side)
          counts.updateWith((s, id, math.floorDiv(win, step), Grid.ancestorAt(cell, sigLevel))) {
            n => Some(n.getOrElse(0L) + cnt)
          }
      }
      Iterator.single((nbins.toSeq,
        counts.iterator.map { case ((s, id, q, c), n) => (s, id, q, c, n) }.toSeq))
    }.collect().toSeq
    catch { case t: Throwable => bins.unpersist(); throw t }
    val nbins = parts.flatMap(_._1).groupMapReduce(_._1)(_._2)(_ + _)
    def side(s: Int): Prepared = {
      val sizes = nbins.collect { case ((`s`, id), n) => id -> n }
      val mean = if (sizes.isEmpty) 0.0 else sizes.valuesIterator.sum.toDouble / sizes.size
      // Histories.lengthNorm's column expression, in its operation order.
      Prepared(sizes.map { case (id, n) => id -> ((1.0 - BParam) + BParam * n / mean) })
    }
    Stage1(side(Histories.SideE), side(Histories.SideI), bins, level, binLevel, parts.flatMap(_._2))
  }

  /** Stage 2: the LSH candidate pairs of a link's two datasets, on the
    * driver from stage 1's signature counts ([[Lsh.candidatePairs]]). Every
    * cached bin adds a count at `qidx = floorDiv(win, step)`, which is
    * monotone in the window, so the counts' smallest and largest `qidx` are
    * the aligned signature range of both datasets. Both sides must have an
    * entity.
    */
  def lshCandidates(stage1: Stage1, l: Lsh.LshConfig): Array[(Long, Long)] = {
    val qMin = stage1.sigCounts.iterator.map(_._3).min
    val qMax = stage1.sigCounts.iterator.map(_._3).max
    val (_, r) = Lsh.bandsFor((qMax - qMin + 1).toInt, l.t)
    Lsh.candidatePairs(stage1.sigCounts, qMin, r, l.numBuckets)
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

  /** Stage 3: every pair of the two datasets' entities that shares a window
    * (only the `candidates`, if given) with its score and cost counters,
    * from one collect of [[Similarity.scoreWindows]]' per-partition sums
    * over [[Stage1.bins]]: one Spark job of one stage over the cache. The
    * candidates reach the tasks as a broadcast index. The driver adds up
    * each pair's partition sums in partition order and divides by the norms:
    * `raw / (L(u) L(v))`. Driver memory is O(pairs sharing a window · P)
    * for P partitions.
    */
  def scorePairs(stage1: Stage1, cfg: Similarity.ScoreConfig,
                 candidates: Option[Array[(Long, Long)]] = None): Array[Similarity.PairScore] = {
    val (e, i) = (stage1.e, stage1.i)
    val index = candidates.map(c => stage1.bins.sparkContext.broadcast(Similarity.candidateIndex(c)))
    val rows =
      try Similarity.scoreWindows(stage1.bins, stage1.binLevel, stage1.level, e.nEntities,
        i.nEntities, cfg, index).collect()
      finally index.foreach(_.destroy())
    val sums = rows.groupMapReduce(r => (r._1, r._2))(r => (r._3, r._4, r._5)) { (a, b) =>
      (a._1 + b._1, a._2 + b._2, a._3 + b._3)
    }
    sums.iterator.map { case ((u, v), (raw, comparisons, alibis)) =>
      Similarity.PairScore(u, v, if (cfg.useNorm) raw / (e.norms(u) * i.norms(v)) else raw,
        comparisons, alibis)
    }.toArray
  }

  /** Run SLIM over two location datasets `(id, ts, lat, lon)`.
    *
    * Spark actions: one collect for stage 1 of both datasets ([[prepare]]),
    * which with LSH also brings the signature counts that the driver turns
    * into candidates ([[lshCandidates]]), and one collect of the
    * per-partition pair sums ([[scorePairs]]). When a side is empty there is
    * no pair to score: stages 2–3 are skipped and the result has no
    * candidates, comparisons, matches or links. The cached histories are
    * released when the link returns or throws.
    */
  def link(spark: SparkSession, recordsE: DataFrame, recordsI: DataFrame,
           cfg: SlimConfig): SlimResult = {
    val t0 = System.nanoTime()

    val stage1 = prepare(recordsE, recordsI, cfg)
    try {
      val (prepE, prepI) = (stage1.e, stage1.i)
      val bothSides = prepE.nEntities > 0 && prepI.nEntities > 0 // else no pair to score

      val candidates = cfg.lsh.filter(_ => bothSides).map(lshCandidates(stage1, _))
      val nCandidates = candidates.fold(prepE.nEntities * prepI.nEntities)(_.length.toLong)

      val scored = if (!bothSides) Array.empty[Similarity.PairScore]
        else scorePairs(stage1, cfg.scoreConfig, candidates)
      val scores = scored.iterator.map(p => (p.uid, p.vid) -> p.score).toMap
      val comparisons = scored.iterator.map(_.comparisons).sum
      val alibiEntityPairs = scored.count(_.alibis > 0).toLong
      val edges = scored.iterator.filter(_.score > 0)
        .map(p => Matching.Edge(p.uid, p.vid, p.score)).toSeq

      val matched = Matching.greedy(edges)
      val (threshold, gmm) = Gmm.stopThresholdWithFit(matched.map(_.w).toArray)
      val links = matched.filter(_.w >= threshold).map(e => (e.u, e.v, e.w))

      val elapsedMs = (System.nanoTime() - t0) / 1000000L
      SlimResult(links, matched, scores, threshold, gmm, nCandidates, comparisons,
        alibiEntityPairs, elapsedMs)
    } finally stage1.unpersist()
  }
}
