package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import scala.collection.mutable

/** End-to-end SLIM pipeline (paper Alg. 1 + §3.2 + §4).
  *
  * Stages, all DataFrame transformations until each reduction whose result
  * the driver needs; such a reduction is done per partition on the
  * executors and finished on the driver, so no shuffle only feeds a collect:
  *  1. mobility histories + BM25 length norms of both datasets at once
  *     ([[prepare]]): the records are tagged with their side, one shuffle
  *     partitions both datasets' histories by window, which stage 3 reuses,
  *     and one pass over them counts the per-entity history sizes (and with
  *     LSH the records per entity, query window and signature cell) per
  *     partition; the driver merges them into the counts and the norms;
  *  2. candidate pairs from dominating-cell banding LSH ([[lshCandidates]]),
  *     on the driver: every signature and its band buckets come from stage
  *     1's signature counts, and E is paired with I per bucket. No Spark
  *     job, and no second pass over the records. Brute force has no
  *     candidate list, since every pair sharing a window is scored;
  *  3. per-window scoring ([[scorePairs]]): each window of the two cached
  *     histories is cogrouped, its idf counted and every cross pair (the LSH
  *     candidates only, if any) scored by one primitive kernel; each
  *     partition sums its windows' partials per pair, and the driver adds up
  *     the partitions' sums and divides by the length norms;
  *  4. (driver) greedy maximum-weight bipartite matching;
  *  5. (driver) GMM stop-threshold over matched edge weights; links above the
  *     threshold are the output.
  *
  * So a link runs one Spark action per collect: stage 1 of both datasets and
  * the scored pairs. Each shuffle map stage runs as a Spark job of its own,
  * and so does the cached histories' final stage: a warm link runs 4 Spark
  * jobs, on brute force and on LSH alike.
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
    * The production path builds it for both datasets at once ([[prepare]]).
    * The per-dataset reference is [[Histories.build]] of its records with
    * [[Histories.idf]] and [[Histories.lengthNorm]]: the tests and the
    * benchmark's staged trace compare against those, and `histories`, the
    * idf counted from it and `norms` equal them. With LSH, the signature
    * counts of both datasets come with them in [[Stage1.sigCounts]]: on the
    * driver, at most one per cached bin, since each
    * `(side, id, qidx, sigCell)` is counted in at most min(step, P) of the
    * P partitions.
    *
    * @param histories  the dataset's leaf bins `(id, win, cell, cnt)` at the
    *                   scoring level: its side of [[Stage1.histories]] (if
    *                   that is binned at a finer signature level, coarsened
    *                   to the scoring level with no exchange), so partitioned
    *                   by window and read from the cache until
    *                   [[Stage1.unpersist]]; stage 3 counts the idf (Eq. 3)
    *                   per window from them
    * @param norms      BM25 length norm L(u) (Eq. 2) of every entity, on the
    *                   driver; bit for bit the `lnorm` of
    *                   [[Histories.lengthNorm]]
    * @param nEntities  number of entities with at least one record (0 for an
    *                   empty dataset)
    * @param meanLength mean history length avg|H| (bins per entity), Eq. 2's
    *                   denominator; 0 for an empty dataset
    * @param minWin     first window any entity occupies (Long.MaxValue when
    *                   empty)
    * @param maxWin     last window any entity occupies (Long.MinValue when
    *                   empty)
    */
  final case class Prepared(histories: DataFrame, norms: Map[Long, Double],
                            nEntities: Long, meanLength: Double, minWin: Long, maxWin: Long)

  /** Stage 1 of both datasets, from one Spark plan.
    *
    * @param e         dataset E
    * @param i         dataset I
    * @param histories both datasets' histories `(side, id, win, cell, cnt)`
    *                  from [[Histories.buildSides]], cached, at the finer of
    *                  the scoring and the signature level: `e.histories` and
    *                  `i.histories` are its two sides at the scoring level
    * @param sigCounts with LSH, partial record counts
    *                  `(side, id, qidx, sigCell, cnt)` at the signature
    *                  level, each partition's own: the input of
    *                  [[Lsh.candidatePairs]]. At most one row per cached bin,
    *                  as each `(side, id, qidx, sigCell)` has a row in at
    *                  most min(step, P) of the P partitions (a query window
    *                  spans `step` windows, and each window is in one
    *                  partition). Empty without LSH.
    */
  final case class Stage1(e: Prepared, i: Prepared, histories: DataFrame,
                          sigCounts: Seq[(Int, Long, Long, Long, Long)]) {
    /** Releases the cached histories of both datasets. */
    def unpersist(): Unit = histories.unpersist()
  }

  /** One partition's history sizes `(side, id) -> (nbins, minWin, maxWin)`. */
  private type Sizes = mutable.HashMap[(Int, Long), (Long, Long, Long)]

  /** Counts one bin of an entity in `sizes`. */
  private def addBin(sizes: Sizes, side: Int, id: Long, win: Long): Unit =
    sizes.updateWith((side, id)) {
      case Some((n, lo, hi)) => Some((n + 1, math.min(lo, win), math.max(hi, win)))
      case None              => Some((1L, win, win))
    }

  /** `sizes` as `(side, id, nbins, minWin, maxWin)` rows. */
  private def sizeRows(sizes: Sizes): Iterator[(Int, Long, Long, Long, Long)] =
    sizes.iterator.map { case ((s, id), (n, lo, hi)) => (s, id, n, lo, hi) }

  /** Stage 1 for both datasets: their histories and their length norms
    * (Eq. 2), and with LSH the signature counts. The two record sets are
    * tagged with their side and binned together ([[Histories.buildSides]]):
    * one shuffle by window and one cache serve both. One Spark action reads
    * the cache once and collects each partition's per-entity history sizes
    * `(side, id, nbins, minWin, maxWin)`; the driver merges them (count sum,
    * min, max: exact) into each side's entity count, mean history length,
    * window range and norms.
    *
    * With LSH the same action collects each partition's record counts per
    * `(side, id, qidx, sigCell)` ([[Stage1.sigCounts]]): `qidx` is
    * `floorDiv(win, step)` and `sigCell` the bin cell's [[Grid.ancestorAt]]
    * the signature level. The histories are binned at the finer of the two
    * levels. When that is the signature level, each side's
    * [[Prepared.histories]] is the cache viewed at the scoring level
    * ([[Histories.coarsen]], no exchange), and its bins are counted once per
    * coarse `(win, cell)`: each partition holds all of a window's bins.
    *
    * Driver memory is O((nE + nI) P) for P partitions, plus with LSH at most
    * one signature count per cached bin. The caller releases the cache with
    * [[Stage1.unpersist]]; a failed collect releases it here.
    */
  def prepare(recordsE: DataFrame, recordsI: DataFrame, cfg: SlimConfig): Stage1 = {
    require(cfg.bParam >= 0 && cfg.bParam <= 1, s"b=${cfg.bParam} out of [0,1]")
    val level = cfg.level
    val binLevel = cfg.lsh.fold(level)(l => math.max(level, l.sigLevel))
    val hist = Histories.buildSides(recordsE, recordsI, binLevel, cfg.windowSec).cache()
    val spark = hist.sparkSession
    import spark.implicits._
    val (sizeParts, sigCounts) = try cfg.lsh match {
      case None =>
        (hist.select("side", "id", "win").as[(Int, Long, Long)]
          .mapPartitions { rows =>
            val sizes: Sizes = mutable.HashMap.empty
            for ((s, id, win) <- rows) addBin(sizes, s, id, win)
            sizeRows(sizes)
          }
          .collect().toSeq, Nil)
      case Some(l) =>
        val (sigLevel, step) = (l.sigLevel, l.stepWindows.toLong)
        val parts = hist.select("side", "id", "win", "cell", "cnt").as[(Int, Long, Long, Long, Long)]
          .mapPartitions { rows =>
            val sizes: Sizes = mutable.HashMap.empty
            val coarse = mutable.HashSet.empty[(Int, Long, Long, Long)]
            val sig = mutable.HashMap.empty[(Int, Long, Long, Long), Long]
            for ((s, id, win, cell, cnt) <- rows) {
              if (binLevel == level || coarse.add((s, id, win, Grid.ancestorAt(cell, level))))
                addBin(sizes, s, id, win)
              sig.updateWith((s, id, math.floorDiv(win, step), Grid.ancestorAt(cell, sigLevel))) {
                n => Some(n.getOrElse(0L) + cnt)
              }
            }
            Iterator.single((sizeRows(sizes).toSeq,
              sig.iterator.map { case ((s, id, q, c), n) => (s, id, q, c, n) }.toSeq))
          }
          .collect()
        (parts.toSeq.flatMap(_._1), parts.toSeq.flatMap(_._2))
    } catch { case t: Throwable => hist.unpersist(); throw t }
    val sizes = sizeParts.groupMapReduce(r => (r._1, r._2))(r => (r._3, r._4, r._5)) { (a, b) =>
      (a._1 + b._1, math.min(a._2, b._2), math.max(a._3, b._3))
    }
    val scored = if (binLevel == level) hist else Histories.coarsen(hist, level)
    def side(s: Int): Prepared = {
      val rows = sizes.collect { case ((`s`, id), size) => id -> size }
      val n = rows.size.toLong
      val mean = if (n == 0) 0.0 else rows.valuesIterator.map(_._1).sum.toDouble / n
      // Histories.lengthNorm's column expression, in its operation order.
      val b = cfg.bParam
      Prepared(scored.filter(col("side") === s).drop("side"),
        rows.map { case (id, (nbins, _, _)) => id -> ((1.0 - b) + b * nbins / mean) }, n, mean,
        rows.valuesIterator.map(_._2).minOption.getOrElse(Long.MaxValue),
        rows.valuesIterator.map(_._3).maxOption.getOrElse(Long.MinValue))
    }
    Stage1(side(Histories.SideE), side(Histories.SideI), hist, sigCounts)
  }

  /** Stage 2: the LSH candidate pairs of a link's two datasets, on the
    * driver from stage 1's signature counts ([[Lsh.candidatePairs]]).
    * `qidx = floor(ts / (windowSec * step)) = floorDiv(win, step)`, so the
    * aligned signature range comes from the windows stage 1 found. Both
    * sides must have an entity.
    */
  def lshCandidates(stage1: Stage1, l: Lsh.LshConfig): Array[(Long, Long)] = {
    val (e, i) = (stage1.e, stage1.i)
    val qMin = math.floorDiv(math.min(e.minWin, i.minWin), l.stepWindows.toLong)
    val qMax = math.floorDiv(math.max(e.maxWin, i.maxWin), l.stepWindows.toLong)
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

  /** Stage 3: every pair of `e` and `i` entities that shares a window (only
    * the `candidates`, if given) with its score and cost counters, from one
    * collect of [[Similarity.scoreWindows]]' per-partition sums. The
    * candidates reach the tasks as a broadcast index. The driver adds up
    * each pair's partition sums in partition order and divides by the norms:
    * `raw / (L(u) L(v))`. Driver memory is O(pairs sharing a window · P)
    * for P partitions.
    */
  def scorePairs(e: Prepared, i: Prepared, cfg: Similarity.ScoreConfig,
                 candidates: Option[Array[(Long, Long)]] = None): Array[Similarity.PairScore] = {
    val sc = e.histories.sparkSession.sparkContext
    val index = candidates.map(c => sc.broadcast(Similarity.candidateIndex(c)))
    val rows =
      try Similarity.scoreWindows(e.histories, i.histories, e.nEntities, i.nEntities, cfg, index)
        .collect()
      finally index.foreach(_.destroy())
    val sums = rows.groupMapReduce(r => (r.getLong(0), r.getLong(1)))(
      r => (r.getDouble(2), r.getLong(3), r.getLong(4))) { (a, b) =>
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
        else scorePairs(prepE, prepI, cfg.scoreConfig, candidates)
      val comparisons = scored.iterator.map(_.comparisons).sum
      val alibiEntityPairs = scored.count(_.alibis > 0).toLong
      val edges = scored.iterator.filter(_.score > 0)
        .map(p => Matching.Edge(p.uid, p.vid, p.score)).toSeq

      val matched = Matching.greedy(edges)
      val (threshold, gmm) = Gmm.stopThresholdWithFit(matched.map(_.w).toArray)
      val links = matched.filter(_.w >= threshold).map(e => (e.u, e.v, e.w))

      val elapsedMs = (System.nanoTime() - t0) / 1000000L
      SlimResult(links, matched, threshold, gmm, nCandidates, comparisons, alibiEntityPairs,
        elapsedMs)
    } finally stage1.unpersist()
  }
}
