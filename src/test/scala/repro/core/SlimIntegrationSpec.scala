package repro.core

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.CachedPlans
import repro.SparkSpec
import repro.mobility.MobilityGen
import TestSupport.recordsDf

/** End-to-end SLIM pipeline: does it actually link the planted entities? */
class SlimIntegrationSpec extends SparkSpec {

  private lazy val ground = MobilityGen.ground(spark,
    MobilityGen.cabConfig(nEntities = 60, recordsPerEntity = 200, days = 2)).cache()
  private lazy val pair = MobilityGen.samplePair(ground, n = 25, intersectRatio = 0.5,
    inclusionProb = 0.6)
  private val cfg = Slim.SlimConfig(level = 14, windowSec = 900)

  private lazy val bf = Slim.link(spark, pair.e, pair.i, cfg)
  private val lshCfg = cfg.copy(lsh = Some(Lsh.LshConfig(t = 0.5, sigLevel = 14,
    stepWindows = 8, numBuckets = 4096)))
  private lazy val lsh = Slim.link(spark, pair.e, pair.i, lshCfg)

  test("brute-force SLIM recovers the planted linkage with high F1") {
    val m = Metrics.prf(bf.links.map(l => (l._1, l._2)), pair.truth)
    assert(m.f1 >= 0.85, s"F1 ${m.f1} (P=${m.precision} R=${m.recall}, truth=${pair.truth.size})")
  }

  test("brute force considers every entity pair") {
    val nE = pair.e.select("id").distinct().count()
    val nI = pair.i.select("id").distinct().count()
    assert(bf.nCandidates == nE * nI)
  }

  test("stop threshold cuts false positives from the full matching") {
    // With intersection 0.5, the full matching must contain false links;
    // the GMM threshold should remove most of them without losing true ones.
    val matchedPrf = Metrics.prf(bf.matched.map(e => (e.u, e.v)), pair.truth)
    val linkedPrf = Metrics.prf(bf.links.map(l => (l._1, l._2)), pair.truth)
    assert(bf.links.size <= bf.matched.size)
    assert(linkedPrf.precision >= matchedPrf.precision,
      s"threshold should not hurt precision: ${linkedPrf.precision} vs ${matchedPrf.precision}")
  }

  test("all emitted links respect the one-to-one constraint") {
    assert(bf.links.map(_._1).distinct.size == bf.links.size)
    assert(bf.links.map(_._2).distinct.size == bf.links.size)
  }

  test("link weights are positive and sorted consistently with the matching") {
    assert(bf.links.forall(_._3 > 0))
    assert(bf.links.forall(_._3 >= bf.threshold))
  }

  test("LSH SLIM preserves most of the brute-force F1 with fewer comparisons") {
    val bfF1 = Metrics.prf(bf.links.map(l => (l._1, l._2)), pair.truth).f1
    val lshF1 = Metrics.prf(lsh.links.map(l => (l._1, l._2)), pair.truth).f1
    assert(lsh.nCandidates < bf.nCandidates,
      s"LSH should prune candidates: ${lsh.nCandidates} vs ${bf.nCandidates}")
    assert(lsh.comparisons < bf.comparisons)
    assert(lshF1 >= 0.6 * bfF1, s"relative F1 ${lshF1 / bfF1}")
  }

  /** Every window-sharing pair's brute-force score. */
  private lazy val bruteForce = repro.exp.Experiments.slimScores(
    repro.exp.Experiments.Scenario("integration", pair), cfg)

  test("every matched LSH edge weighs the brute-force score of its pair") {
    assert(lsh.matched.nonEmpty)
    for (m <- lsh.matched) {
      val s = bruteForce((m.u, m.v))
      assert(math.abs(m.w - s) <= 1e-9, s"pair (${m.u}, ${m.v}): LSH ${m.w} vs brute force $s")
    }
  }

  test("LSH candidates from stage 1's window range equal those from the signatures' range") {
    val fromSignatures = TestSupport.candidatePairs(pair.e, pair.i, lshCfg.lsh.get, cfg.windowSec)
    assert(lsh.nCandidates == fromSignatures._1.count())
  }

  /** LSH with signatures finer than the scoring level: stage 1 bins at the
    * signature level and stage 3 reads the histories coarsened to level 14.
    */
  private val lshFineCfg = cfg.copy(lsh = Some(Lsh.LshConfig(t = 0.5, sigLevel = 16,
    stepWindows = 8, numBuckets = 4096)))

  test("LSH at a signature level finer than the scoring level: the signatures' candidates") {
    val want = TestSupport.candidatePairs(pair.e, pair.i, lshFineCfg.lsh.get, cfg.windowSec)._1
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val stage1 = Slim.prepare(pair.e, pair.i, lshFineCfg)
    val got = try Slim.lshCandidates(stage1, lshFineCfg.lsh.get) finally stage1.unpersist()
    assert(want.nonEmpty && got.toSet == want && got.length == want.size)
    // Stage 3 scores the candidates at level 14, as brute force does.
    val run = Slim.link(spark, pair.e, pair.i, lshFineCfg)
    assert(run.nCandidates == want.size)
    assert(run.matched.nonEmpty)
    for (m <- run.matched)
      assert(math.abs(m.w - bruteForce((m.u, m.v))) <= 1e-9, s"pair (${m.u}, ${m.v})")
  }

  test("ablations change the scores as designed") {
    val noNorm = Slim.link(spark, pair.e, pair.i, cfg.copy(useNorm = false))
    val noIdf = Slim.link(spark, pair.e, pair.i, cfg.copy(useIdf = false))
    val allPairs = Slim.link(spark, pair.e, pair.i, cfg.copy(pairing = Similarity.AllPairs))
    val base = bf.matched.map(e => ((e.u, e.v), e.w)).toMap
    def weights(r: Slim.SlimResult) = r.matched.map(e => ((e.u, e.v), e.w)).toMap
    assert(weights(noNorm) != base)
    assert(weights(noIdf) != base)
    assert(weights(allPairs) != base)
    // All-pairs over-counts: its raw sums dominate the MNN-paired ones on
    // shared keys (same normalization).
    val ap = weights(allPairs)
    val shared = ap.keySet.intersect(base.keySet)
    assert(shared.nonEmpty)
    assert(shared.count(k => ap(k) >= base(k) - 1e-9).toDouble / shared.size > 0.9)
  }

  test("degenerate input: no shared windows yields no links") {
    val e = recordsDf(spark, Seq((1L, 0L, 10.0, 10.0), (1L, 900L, 10.0, 10.0),
      (1L, 1800L, 10.0, 10.0), (1L, 2700L, 10.0, 10.0), (1L, 3600L, 10.0, 10.0),
      (1L, 4500L, 10.0, 10.0)))
    val i = recordsDf(spark, Seq((2L, 100000L, 10.0, 10.0), (2L, 100900L, 10.0, 10.0),
      (2L, 101800L, 10.0, 10.0), (2L, 102700L, 10.0, 10.0), (2L, 103600L, 10.0, 10.0),
      (2L, 104500L, 10.0, 10.0)))
    val r = Slim.link(spark, e, i, cfg)
    assert(r.links.isEmpty && r.comparisons == 0)
  }

  for ((path, c) <- Seq("brute force" -> cfg, "LSH" -> lshCfg); emptySide <- Seq("E", "I")) {
    test(s"degenerate input: an empty $emptySide yields an empty result ($path)") {
      val some = recordsDf(spark, Seq((1L, 0L, 10.0, 10.0), (1L, 900L, 10.0, 10.0)))
      val none = recordsDf(spark, Seq.empty)
      val r = if (emptySide == "E") Slim.link(spark, none, some, c) else Slim.link(spark, some, none, c)
      assert(r.links.isEmpty && r.matched.isEmpty)
      assert(r.nCandidates == 0 && r.comparisons == 0)
      val (threshold, gmm) = Gmm.stopThresholdWithFit(Array.empty)
      assert(r.threshold == threshold && r.gmm == gmm)
    }
  }

  test("self-linkage sanity: the full matching at intersection 1.0 is near-perfect") {
    // At intersection ratio 1.0 every matched edge should be a true link.
    // The GMM stop threshold is *not* applied here: with no false-link
    // cluster the 2-component fit splits the single true cluster and cuts
    // genuine links — the paper's method presumes the two-cluster setting
    // (§3.2) and never evaluates identical entity sets.
    val selfPair = MobilityGen.samplePair(ground, n = 15, intersectRatio = 1.0,
      inclusionProb = 0.7)
    val r = Slim.link(spark, selfPair.e, selfPair.i, cfg)
    val m = Metrics.prf(r.matched.map(e => (e.u, e.v)), selfPair.truth)
    assert(m.f1 >= 0.9, s"self-linkage matching F1 ${m.f1}")
  }

  test("bruteForceComparisons matches the brute-force run's counter") {
    // §5.3's brute-force cost, in-core: sum over windows of |E bins| * |I bins|.
    def binsPerWindow(records: org.apache.spark.sql.DataFrame): Map[Long, Long] = {
      val rows = records.select("id", "ts", "lat", "lon").collect()
        .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2), r.getDouble(3))).toSeq
      LocalReference.Dataset.fromRecords(rows, cfg.level, cfg.windowSec).histories.values
        .toSeq.flatMap(_.iterator.map { case (win, cells) => win -> cells.size.toLong })
        .groupMapReduce(_._1)(_._2)(_ + _)
    }
    val be = binsPerWindow(pair.e)
    val bi = binsPerWindow(pair.i)
    val expected = be.iterator.map { case (win, n) => n * bi.getOrElse(win, 0L) }.sum
    assert(bf.comparisons == expected)
  }

  /** Spark jobs started while `body` runs. Listener events arrive
    * asynchronously, so a marker job in a group of its own runs afterwards
    * and the count is read once the listener has seen it.
    */
  private def jobsDuring(body: => Unit): Int = {
    val sc = spark.sparkContext
    val group = s"slim-jobs-${System.nanoTime()}"
    val marker = s"$group-marker"
    val jobs = new java.util.concurrent.atomic.AtomicInteger
    val seen = scala.concurrent.Promise[Unit]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull match {
          case `group`  => jobs.incrementAndGet()
          case `marker` => seen.trySuccess(())
          case _        =>
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "counted")
      try body finally sc.clearJobGroup()
      sc.setJobGroup(marker, "marker")
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      scala.concurrent.Await.result(seen.future, scala.concurrent.duration.Duration(60, "s"))
      jobs.get
    } finally sc.removeSparkListener(listener)
  }

  /** Two entities per dataset, each pair co-located in the same 16 windows:
    * an input that takes every step of both paths at little cost.
    */
  private lazy val (smallE, smallI) = {
    def entity(id: Long, lat: Double) = (0 until 16).map(k => (id, k * 900L + 10, lat, 10.0))
    (recordsDf(spark, entity(1, 10.0) ++ entity(2, 40.0)),
      recordsDf(spark, entity(101, 10.0) ++ entity(102, 40.0)))
  }

  test("a warm link runs at most 4 Spark jobs (brute force) and 4 (LSH)") {
    // Stage 1 of both datasets is one job chain and also counts the LSH
    // signatures, whose candidates the driver computes; no reduction that
    // the driver collects shuffles first.
    val runs = for (c <- Seq(cfg, lshCfg, lshFineCfg)) yield {
      Slim.link(spark, smallE, smallI, c) // warm-up, not counted
      var r: Slim.SlimResult = null
      (jobsDuring { r = Slim.link(spark, smallE, smallI, c) }, r)
    }
    val Seq((bfJobs, bfRun), (lshJobs, lshRun), (fineJobs, fineRun)) = runs
    assert(bfRun.links.nonEmpty && lshRun.nCandidates > 0 && fineRun.nCandidates > 0)
    assert(bfJobs <= 4, s"brute force: $bfJobs jobs")
    assert(lshJobs <= 4, s"LSH: $lshJobs jobs")
    assert(fineJobs <= 4, s"LSH at signature level 16: $fineJobs jobs")
  }

  test("a link that throws leaves no histories cached") {
    def cached = (CachedPlans.count(spark), spark.sparkContext.getPersistentRDDs.keySet)
    val before = cached
    // A NaN latitude fails stage 1's cell UDF, and so does an LSH signature
    // level beyond the grid, at which stage 1 bins.
    val nan = recordsDf(spark, Seq((1L, 0L, Double.NaN, 10.0), (1L, 900L, 10.0, 10.0)))
    intercept[Exception](Slim.link(spark, nan, smallI, cfg))
    assert(cached == before, "after a stage-1 failure")
    // Behind a repartition the UDF is not evaluated while the cache is
    // planned, so the failure comes from stage 1's collect.
    intercept[Exception](Slim.link(spark, nan.repartition(2), smallI, cfg))
    assert(cached == before, "after a failure in stage 1's collect")
    intercept[Exception](Slim.link(spark, smallE, smallI,
      cfg.copy(lsh = Some(Lsh.LshConfig(sigLevel = Grid.MaxLevel + 1)))))
    assert(cached == before, "after a signature-level failure")
  }
}
