package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.{Grid, Histories, Proximity, Similarity, Tuning}

/** ST-Link baseline (Basık et al., IEEE TMC 2018; paper §5.5, DESIGN S6).
  *
  * Links two entities when they have at least `k` co-occurring records in at
  * least `l` diverse locations and no more than `alibiTolerance` alibi record
  * pairs; any entity that would link ambiguously (to more than one partner)
  * has all its links discarded. `k` and `l` are auto-detected from the
  * distributions of co-occurrence and diversity counts via trade-off (elbow)
  * point detection, as in the original paper.
  *
  * Window comparison is tumbling rather than sliding (DESIGN S6); a
  * co-occurrence is a shared `(window, cell)` bin.
  */
object STLink {

  /** @param level          spatial grid level for co-occurrence cells
    * @param windowSec      comparison window width
    * @param speedKmPerMin  runaway speed for alibi detection
    * @param alibiTolerance alibi record pairs tolerated per entity pair
    *                       (paper §5.5 sets 3)
    * @param k              min co-occurrences; None = auto-detect
    * @param l              min diverse locations; None = auto-detect
    */
  final case class Config(
      level: Int = 14,
      windowSec: Long = 900,
      speedKmPerMin: Double = Proximity.MaxSpeedKmPerMin,
      alibiTolerance: Int = 3,
      k: Option[Int] = None,
      l: Option[Int] = None,
  )

  /** @param links       final unambiguous links
    * @param scores      co-occurrence score per surviving candidate pair —
    *                    the ranking used for Hit-Precision@k
    * @param kUsed       the k actually applied
    * @param lUsed       the l actually applied
    * @param comparisons window-level record-pair comparisons performed (cost
    *                    metric; ST-Link has no blocking, so this is
    *                    sum_w |E_w| * |I_w| over shared windows)
    * @param elapsedMs   wall time
    */
  final case class Result(
      links: Seq[(Long, Long)],
      scores: Map[(Long, Long), Double],
      kUsed: Int,
      lUsed: Int,
      comparisons: Long,
      elapsedMs: Long,
  )

  /** Elbow-detected threshold over a positive count distribution: sort counts
    * descending and take the value at the curve's knee; degenerate
    * distributions fall back to 2.
    */
  def autoThreshold(counts: Seq[Long]): Int = {
    val sorted = counts.sortBy(-_)
    if (sorted.size < 3 || sorted.distinct.size < 2) 2
    else {
      val idx = Tuning.elbow(sorted.indices.map(_.toDouble), sorted.map(_.toDouble))
      math.max(2, sorted(idx).toInt)
    }
  }

  /** ST-Link over two location datasets `(id, ts, lat, lon)` on SLIM's stage-1
    * binning: one shuffle bins both into one cached RDD partitioned by window
    * ([[Histories.binSides]]), and two passes over it read each partition's
    * windows ([[Histories.windows]]), reduce them and finish on the driver.
    * Pass 1 gives the record comparisons and each co-located pair's shared
    * bins per cell, summed into `cooc` and `ldiv`; its collect also runs the
    * binning's shuffle and fills the cache. Pass 2 counts the alibi cell
    * pairs of the pairs past (k, l), which reach the tasks as a broadcast
    * index. A warm run is at most 2 Spark jobs.
    */
  def run(spark: SparkSession, recordsE: DataFrame, recordsI: DataFrame,
          cfg: Config): Result = {
    val t0 = System.nanoTime()
    val bins = Histories.binSides(recordsE, recordsI, cfg.level, cfg.windowSec)
    try {
      val pass1 = bins.mapPartitions { blocks =>
        val shared = collection.mutable.HashMap.empty[(Long, Long, Long), Long].withDefaultValue(0L)
        var comparisons = 0L
        for ((_, es, is) <- Histories.windows(blocks)) {
          comparisons += es.map(_._5).sum * is.map(_._5).sum
          val iByCell = is.groupMap(_._4)(_._2)
          for ((_, u, _, cell, _) <- es; v <- iByCell.getOrElse(cell, Array.emptyLongArray))
            shared((u, v, cell)) += 1
        }
        Iterator.single((comparisons, shared.toSeq))
      }.collect()
      // Shared windows per (u, v, cell), then per pair: (cooc, ldiv).
      val cooc = pass1.toSeq.flatMap(_._2).groupMapReduce(_._1)(_._2)(_ + _).toSeq
        .groupMapReduce(r => (r._1._1, r._1._2))(r => (r._2, 1L))((a, b) => (a._1 + b._1, a._2 + b._2))
      val kUsed = cfg.k.getOrElse(autoThreshold(cooc.values.map(_._1).toSeq))
      val lUsed = cfg.l.getOrElse(autoThreshold(cooc.values.map(_._2).toSeq))
      val passing = cooc.collect { case (p, (n, ldiv)) if n >= kUsed && ldiv >= lUsed => p -> n }

      val alibis = if (passing.isEmpty) Map.empty[(Long, Long), Long] else {
        val runaway = Proximity.runawayKm(cfg.windowSec, cfg.speedKmPerMin)
        val index = spark.sparkContext.broadcast(Similarity.candidateIndex(passing.keys))
        try bins.mapPartitions { blocks =>
          val counts = collection.mutable.HashMap.empty[(Long, Long), Long].withDefaultValue(0L)
          for ((_, es, is) <- Histories.windows(blocks)) {
            val iCells = is.groupMap(_._2)(_._4)
            for ((u, us) <- es.groupMap(_._2)(_._4); v <- index.value.getOrElse(u, Array.emptyLongArray);
                 vs <- iCells.get(v))
              counts((u, v)) += us.map(a => vs.count(b => Grid.minDistanceKm(a, b) > runaway).toLong).sum
          }
          counts.iterator
        }.collect().toSeq.groupMapReduce(_._1)(_._2)(_ + _)
        finally index.destroy()
      }
      val survivors = passing.collect {
        case (p, n) if alibis.getOrElse(p, 0L) <= cfg.alibiTolerance => p -> n.toDouble
      }
      // Ambiguity removal: an entity with multiple surviving partners links to none.
      val (byU, byV) = (survivors.keys.groupBy(_._1), survivors.keys.groupBy(_._2))
      val links = survivors.keys.toSeq.filter { case (u, v) => byU(u).size == 1 && byV(v).size == 1 }
      Result(links.sorted, survivors, kUsed, lUsed, pass1.map(_._1).sum,
        (System.nanoTime() - t0) / 1000000L)
    } finally bins.unpersist()
  }
}
