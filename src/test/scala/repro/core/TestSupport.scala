package repro.core

import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart,
  SparkListenerStageSubmitted, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import org.apache.spark.sql.functions.{col, max, min, sum, udf}
import Similarity.{AllPairs, Bin, MnnOnly, MnnWithMfn, ScoreConfig, WindowScore}

import scala.collection.mutable

/** Test-only helpers and oracles over the core types. */
object TestSupport {

  /** A location dataset `(id, ts, lat, lon)` from an in-memory record list. */
  def recordsDf(spark: SparkSession, rows: Seq[(Long, Long, Double, Double)]): DataFrame = {
    import spark.implicits._
    rows.toDF("id", "ts", "lat", "lon")
  }

  /** A Spark job that [[startedDuring]]'s body started: the stages it ran
    * (a skipped stage is never submitted) and the shuffle bytes its tasks
    * read.
    */
  final case class JobRun(stages: Int, shuffleReadBytes: Long)

  /** The SQL executions and the Spark jobs started while `body` runs.
    * Listener events arrive asynchronously but in the order they were
    * posted, so a marker job in a group of its own runs afterwards and the
    * counts are read once the listener has seen it.
    */
  def startedDuring(spark: SparkSession)(body: => Unit): (Int, Seq[JobRun]) = {
    val sc = spark.sparkContext
    val group = s"counted-jobs-${System.nanoTime()}"
    val marker = s"$group-marker"
    // Written by the listener thread only; read after the marker is seen.
    var sqlExecutions = 0
    val jobs = mutable.LinkedHashMap.empty[Int, JobRun]
    val jobOfStage = mutable.HashMap.empty[Int, Int]
    def add(stage: Int)(f: JobRun => JobRun): Unit =
      jobOfStage.get(stage).foreach(j => jobs(j) = f(jobs(j)))
    val seen = scala.concurrent.Promise[Unit]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull match {
          case `group`  =>
            jobs(e.jobId) = JobRun(0, 0L)
            e.stageIds.foreach(jobOfStage.getOrElseUpdate(_, e.jobId))
          case `marker` => seen.trySuccess(())
          case _        =>
        }
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
        add(e.stageInfo.stageId)(j => j.copy(stages = j.stages + 1))
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        Option(e.taskMetrics).foreach { m =>
          add(e.stageId)(j => j.copy(shuffleReadBytes =
            j.shuffleReadBytes + m.shuffleReadMetrics.totalBytesRead))
        }
      override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
        case s: SparkListenerSQLExecutionStart if s.jobGroupId.contains(group) => sqlExecutions += 1
        case _ =>
      }
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "counted")
      try body finally sc.clearJobGroup()
      sc.setJobGroup(marker, "marker")
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      scala.concurrent.Await.result(seen.future, scala.concurrent.duration.Duration(60, "s"))
      (sqlExecutions, jobs.values.toSeq)
    } finally sc.removeSparkListener(listener)
  }

  /** Spark jobs started while `body` runs ([[startedDuring]]). */
  def jobsDuring(spark: SparkSession)(body: => Unit): Int = startedDuring(spark)(body)._2.size

  /** Histories binned at a finer level, viewed at the coarser `level`: each
    * bin's cell becomes its [[Grid.ancestorAt]] `level` and the counts of the
    * bins that merge are summed. Every other column stays a grouping key.
    * `ancestorAt(cellOf(p, L), l) == cellOf(p, l)`, so the result holds the
    * rows that binning the records at `level` gives.
    */
  def coarsen(hist: DataFrame, level: Int): DataFrame = {
    val ancestor = udf((cell: Long) => Grid.ancestorAt(cell, level))
    val keys = hist.columns.toSeq.filterNot(Set("cell", "cnt")).map(col)
    hist.groupBy(keys :+ ancestor(col("cell")).as("cell"): _*).agg(sum("cnt").as("cnt"))
  }

  /** One dataset's histories `(id, win, cell, cnt)` at the scoring level:
    * its side of [[Slim.Stage1.histories]], coarsened.
    */
  def sideHistories(st: Slim.Stage1, side: Int): DataFrame =
    coarsen(st.histories.filter(col("side") === side).drop("side"), st.level)

  /** Exact maximum-weight matching by exhaustive search — the oracle for
    * [[Matching.greedy]] (exponential; callers keep graphs tiny).
    */
  def exhaustive(edges: Seq[Matching.Edge]): Seq[Matching.Edge] = {
    def best(remaining: List[Matching.Edge], usedU: Set[Long],
             usedV: Set[Long]): (Double, List[Matching.Edge]) =
      remaining match {
        case Nil => (0.0, Nil)
        case e :: rest =>
          val (skipW, skipM) = best(rest, usedU, usedV)
          if (usedU(e.u) || usedV(e.v)) (skipW, skipM)
          else {
            val (takeW, takeM) = best(rest, usedU + e.u, usedV + e.v)
            if (takeW + e.w > skipW) (takeW + e.w, e :: takeM) else (skipW, skipM)
          }
      }
    best(edges.toList, Set.empty, Set.empty)._2
  }

  /** Signature similarity of two aligned signatures (matching dominating
    * cells / signature length); the pipeline never materializes it.
    */
  def signatureSimilarity(a: Map[Long, Long], b: Map[Long, Long], sigLen: Int): Double = {
    require(sigLen > 0)
    a.count { case (q, c) => b.get(q).contains(c) }.toDouble / sigLen
  }

  /** LSH candidates from two record DataFrames with the band sizes taken from
    * the signatures' own query-index range (one extra Spark job; `Slim.link`
    * takes the range from stage 1 instead).
    * Returns (candidates, signature length, bands, rows).
    */
  def candidatePairs(recordsE: DataFrame, recordsI: DataFrame, cfg: Lsh.LshConfig,
                     windowSec: Long): (DataFrame, Int, Int, Int) = {
    val sigE = Lsh.signatures(recordsE, cfg, windowSec)
    val sigI = Lsh.signatures(recordsI, cfg, windowSec)
    val bothQ = sigE.select("qidx").union(sigI.select("qidx"))
      .agg(min("qidx"), max("qidx")).first()
    val (qMin, qMax) = (bothQ.getLong(0), bothQ.getLong(1))
    val sigLen = (qMax - qMin + 1).toInt
    val (b, r) = Lsh.bandsFor(sigLen, cfg.t)
    (Lsh.candidates(sigE, sigI, qMin, r, cfg.numBuckets), sigLen, b, r)
  }

  /** Idf-weighted bins per window, `(id, win, bins)`, of one dataset of
    * stage 1: the input of the reference scoring [[Similarity.scoreEdges]].
    */
  def refBins(st: Slim.Stage1, side: Int): DataFrame = {
    val hist = sideHistories(st, side)
    val n = if (side == Histories.SideE) st.e.nEntities else st.i.nEntities
    Histories.binsByWindow(hist, Histories.idf(hist, n))
  }

  /** Greedy mutual pairing over boxed tuples — the oracle for the pairing
    * order of [[Similarity.Kernel]]. Returns (indexU, indexV, distanceKm)
    * triples. `nearest = true` picks globally closest pairs first (N); false
    * picks the furthest first (N'). Ties break on (cellU, cellV), then on the
    * input order.
    */
  def mutualPairs(us: IndexedSeq[Long], vs: IndexedSeq[Long], nearest: Boolean): Seq[(Int, Int, Double)] = {
    if (us.isEmpty || vs.isEmpty) return Nil
    val all = mutable.ArrayBuffer.empty[(Double, Int, Int)]
    var i = 0
    while (i < us.length) {
      var j = 0
      while (j < vs.length) {
        all += ((minDistanceKm(us(i), vs(j)), i, j)); j += 1
      }
      i += 1
    }
    val sorted = all.sortBy { case (d, a, b) =>
      (if (nearest) d else -d, us(a), vs(b))
    }
    val usedU = new Array[Boolean](us.length)
    val usedV = new Array[Boolean](vs.length)
    val out = mutable.ArrayBuffer.empty[(Int, Int, Double)]
    val target = math.min(us.length, vs.length)
    val it = sorted.iterator
    while (out.size < target && it.hasNext) {
      val (d, a, b) = it.next()
      if (!usedU(a) && !usedV(b)) { usedU(a) = true; usedV(b) = true; out += ((a, b, d)) }
    }
    out.toSeq
  }

  /** One window's unnormalized score over boxed collections, with both
    * pairing passes run in full — the oracle for [[Similarity.windowScore]].
    */
  def windowScore(us: IndexedSeq[Bin], vs: IndexedSeq[Bin], cfg: ScoreConfig): WindowScore = {
    if (us.isEmpty || vs.isEmpty) return WindowScore(0.0, 0L, 0L)
    val uc = us.map(_.cell); val vc = vs.map(_.cell)
    def weight(a: Int, b: Int): Double =
      if (cfg.useIdf) math.min(us(a).idf, vs(b).idf) else 1.0
    def prox(d: Double): Double = Proximity.proximity(d, cfg.runawayKm)

    var raw = 0.0; var alibis = 0L
    val comparisons = us.length.toLong * vs.length.toLong
    cfg.pairing match {
      case AllPairs =>
        for (a <- uc.indices; b <- vc.indices) {
          val p = prox(minDistanceKm(uc(a), vc(b)))
          raw += p * weight(a, b)
          if (p < 0) alibis += 1
        }
      case MnnOnly | MnnWithMfn =>
        val mnn = mutualPairs(uc, vc, nearest = true)
        val counted = mutable.Set.empty[(Int, Int)]
        for ((a, b, d) <- mnn) {
          val p = prox(d)
          raw += p * weight(a, b)
          if (p < 0) alibis += 1
          counted += ((a, b))
        }
        if (cfg.pairing == MnnWithMfn) {
          for ((a, b, d) <- mutualPairs(uc, vc, nearest = false) if !counted((a, b))) {
            val p = prox(d)
            if (p < 0) { raw += p * weight(a, b); alibis += 1 } // only alibi deltas (Alg. 1)
          }
        }
    }
    WindowScore(raw, comparisons, alibis)
  }

  /** Minimum distance between two cells' rectangles through
    * [[Grid.bounds]]' tuples and a `Seq` — the oracle for
    * [[Grid.minDistanceKm]], which must equal it bit for bit.
    */
  def minDistanceKm(a: Long, b: Long): Double = {
    if (a == b) return 0.0
    val (aLa0, aLa1, aLo0, aLo1) = Grid.bounds(a)
    val (bLa0, bLa1, bLo0, bLo1) = Grid.bounds(b)
    val dLat =
      if (aLa1 < bLa0) bLa0 - aLa1
      else if (bLa1 < aLa0) aLa0 - bLa1
      else 0.0
    val dLon =
      if (aLo1 >= bLo0 && bLo1 >= aLo0) 0.0
      else {
        val eastGap = ((bLo0 - aLo1) % 360 + 360) % 360
        val westGap = ((aLo0 - bLo1) % 360 + 360) % 360
        math.min(eastGap, westGap)
      }
    if (dLat == 0.0 && dLon == 0.0) return 0.0
    val phiMax = Seq(aLa0, aLa1, bLa0, bLa1).map(math.abs).max
    val sLat = math.sin(math.toRadians(dLat) / 2)
    val sLon = math.sin(math.toRadians(math.min(dLon, 180.0)) / 2)
    val cosPhi = math.cos(math.toRadians(math.min(phiMax, 90.0)))
    val q = math.sqrt(sLat * sLat + cosPhi * cosPhi * sLon * sLon)
    2 * Grid.EarthRadiusKm * math.asin(math.min(1.0, q))
  }
}
