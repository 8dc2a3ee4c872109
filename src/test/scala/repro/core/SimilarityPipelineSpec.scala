package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.mobility.MobilityGen
import Histories.{SideE, SideI}
import Slim.BParam
import TestSupport.{recordsDf, refBins}

/** The DataFrame similarity join cross-checked against [[LocalReference]]. */
class SimilarityPipelineSpec extends SparkSpec {

  private val Level = 13
  private val WindowSec = 900L
  private val RunawayKm = Proximity.runawayKm(WindowSec, Proximity.MaxSpeedKmPerMin)

  private val PrepCfg = Slim.SlimConfig(level = Level, windowSec = WindowSec)

  /** LSH with signatures finer than the scoring level: stage 1 bins at the
    * signature level and stage 3 views the histories at `Level`.
    */
  private val FineLsh = Lsh.LshConfig(t = 0.5, sigLevel = Level + 2, stepWindows = 8,
    numBuckets = 4096)
  private val FineCfg = PrepCfg.copy(lsh = Some(FineLsh))

  /** `f` over stage 1 of both datasets ([[Slim.prepare]]). */
  private def withStage1[T](recordsE: DataFrame, recordsI: DataFrame, cfg: Slim.SlimConfig)
                           (f: Slim.Stage1 => T): T = {
    val stage1 = Slim.prepare(recordsE, recordsI, cfg)
    try f(stage1) finally stage1.unpersist()
  }

  /** The reference norms `(id, nbins, lnorm)` of one dataset of stage 1. */
  private def refNorms(st: Slim.Stage1, side: Int): DataFrame =
    Histories.lengthNorm(TestSupport.sideHistories(st, side), BParam)

  /** Scored rows as `(uid, vid) -> (score, comparisons, alibis)`. */
  private def scoredRows(df: DataFrame): Map[(Long, Long), (Double, Long, Long)] =
    df.collect()
      .map(r => ((r.getLong(0), r.getLong(1)), (r.getDouble(2), r.getLong(3), r.getLong(4)))).toMap

  private def scoreAll(recordsE: DataFrame, recordsI: DataFrame,
                       cfg: Similarity.ScoreConfig): Map[(Long, Long), Double] =
    withStage1(recordsE, recordsI, PrepCfg) { st =>
      scoredRows(Similarity.scoreEdges(refBins(st, SideE), refBins(st, SideI),
        Slim.allPairsCandidates(recordsE, recordsI), refNorms(st, SideE), refNorms(st, SideI), cfg))
        .map { case (k, v) => k -> v._1 }
    }

  private def localScoreAll(rowsE: Seq[(Long, Long, Double, Double)],
                            rowsI: Seq[(Long, Long, Double, Double)],
                            cfg: Similarity.ScoreConfig): Map[(Long, Long), Double] = {
    val dsE = LocalReference.Dataset.fromRecords(rowsE, Level, WindowSec, BParam)
    val dsI = LocalReference.Dataset.fromRecords(rowsI, Level, WindowSec, BParam)
    (for {
      u <- dsE.histories.keys; v <- dsI.histories.keys
      s = LocalReference.score(dsE, dsI, u, v, cfg, BParam)
      if s != 0.0
    } yield (u, v) -> s).toMap
  }

  private def assertAgree(spark1: Map[(Long, Long), Double],
                          local: Map[(Long, Long), Double]): Unit = {
    // Spark emits rows only for pairs sharing >= 1 window; local emits nonzero
    // scores. Compare on the union, treating absence as 0.
    val keys = spark1.keySet ++ local.keySet
    for (k <- keys) {
      val a = spark1.getOrElse(k, 0.0)
      val b = local.getOrElse(k, 0.0)
      assert(math.abs(a - b) < 1e-6 * math.max(1.0, math.abs(b)), s"pair $k: spark=$a local=$b")
    }
  }

  private def genPair(n: Int, recs: Int, p: Double) = {
    val ground = MobilityGen.ground(spark,
      MobilityGen.cabConfig(nEntities = n * 2, recordsPerEntity = recs, days = 2))
    MobilityGen.samplePair(ground, n = n, intersectRatio = 0.5, inclusionProb = p)
  }

  private def collectRows(df: DataFrame) =
    df.collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2), r.getDouble(3))).toSeq

  for (pairing <- Seq(Similarity.MnnWithMfn, Similarity.MnnOnly, Similarity.AllPairs)) {
    test(s"scoreEdges equals LocalReference ($pairing)") {
      val pair = genPair(10, 60, 0.7)
      val cfg = Similarity.ScoreConfig(runawayKm = RunawayKm, pairing = pairing)
      assertAgree(
        scoreAll(pair.e, pair.i, cfg),
        localScoreAll(collectRows(pair.e), collectRows(pair.i), cfg))
    }
  }

  /** LSH candidates of a generated pair, collected. */
  private def lshCandidates(recordsE: DataFrame, recordsI: DataFrame): Array[(Long, Long)] =
    TestSupport.candidatePairs(recordsE, recordsI,
      Lsh.LshConfig(t = 0.5, sigLevel = Level, stepWindows = 8, numBuckets = 4096), WindowSec)
      ._1.collect().map(r => (r.getLong(0), r.getLong(1)))

  /** One input and its LSH candidates for the three pairings below. */
  private lazy val (equivPair, equivCandidates) = {
    val pair = genPair(10, 60, 0.7)
    (pair, lshCandidates(pair.e, pair.i))
  }

  for (pairing <- Seq(Similarity.MnnWithMfn, Similarity.MnnOnly, Similarity.AllPairs)) {
    test(s"shared-window scoring equals scoreEdges over all pairs ($pairing)") {
      val (pair, candidates) = (equivPair, equivCandidates)
      val cfg = Similarity.ScoreConfig(runawayKm = RunawayKm, pairing = pairing)
      assert(candidates.nonEmpty)
      def rows(scores: Array[Similarity.PairScore]) =
        scores.map(p => (p.uid, p.vid) -> (p.score, p.comparisons, p.alibis)).toMap
      // Brute force against all pairs, and the LSH path against its candidates.
      val cases = withStage1(pair.e, pair.i, PrepCfg) { st =>
        import spark.implicits._
        val (binsE, binsI) = (refBins(st, SideE), refBins(st, SideI))
        val (normsE, normsI) = (refNorms(st, SideE), refNorms(st, SideI))
        Seq(
          "all pairs" -> (rows(Slim.scorePairs(st, cfg)), scoredRows(Similarity.scoreEdges(
            binsE, binsI, Slim.allPairsCandidates(pair.e, pair.i), normsE, normsI, cfg))),
          "LSH candidates" -> (rows(Slim.scorePairs(st, cfg, Some(candidates))),
            scoredRows(Similarity.scoreEdges(binsE, binsI,
              candidates.toSeq.toDF("uid", "vid"), normsE, normsI, cfg))))
      }
      for ((input, (windows, viaCandidates)) <- cases) {
        assert(windows.nonEmpty, input)
        assert(windows.keySet == viaCandidates.keySet, input)
        for ((k, (s, comps, alibis)) <- windows) {
          val (s0, comps0, alibis0) = viaCandidates(k)
          assert(math.abs(s - s0) <= 1e-9, s"$input, pair $k: windows=$s candidates=$s0")
          assert(comps == comps0 && alibis == alibis0, s"$input, pair $k counters")
        }
      }
    }
  }

  for (path <- Seq("brute-force", "LSH", "LSH at a finer signature level")) {
    test(s"$path scoring adds no shuffle keyed on the window") {
      // Stage 1 partitions the histories by window and caches them; stage 3
      // is one pass over the cached bins, also when they are binned at a
      // finer signature level, and the per-pair sums are finished on the
      // driver: no query to plan, and one job of one stage with no shuffle.
      val pair = genPair(8, 50, 0.7)
      val cfg = Similarity.ScoreConfig(runawayKm = RunawayKm)
      val fine = path == "LSH at a finer signature level"
      val (sqlExecutions, jobs) = withStage1(pair.e, pair.i, if (fine) FineCfg else PrepCfg) { st =>
        val candidates =
          if (fine) Some(Slim.lshCandidates(st, FineLsh))
          else if (path == "LSH") Some(lshCandidates(pair.e, pair.i))
          else None
        assert(candidates.forall(_.nonEmpty))
        var scored = Array.empty[Similarity.PairScore]
        val started = TestSupport.startedDuring(spark) { scored = Slim.scorePairs(st, cfg, candidates) }
        assert(scored.nonEmpty)
        started
      }
      assert(sqlExecutions == 0, s"stage 3 started $sqlExecutions SQL executions")
      assert(jobs == Seq(TestSupport.JobRun(stages = 1, shuffleReadBytes = 0L)), s"stage 3 jobs: $jobs")
    }
  }

  test("stage 1 and stage 3 do not depend on the partition count") {
    // Each partition reduces its own rows and the driver merges them, so the
    // counts, the norms and every pair's counters are exact at any partition
    // count; only the order of a pair's floating-point additions moves.
    val (pair, candidates) = (equivPair, equivCandidates)
    val cfg = Similarity.ScoreConfig(runawayKm = RunawayKm)
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    val runs = try for (n <- Seq(1, 7, 64)) yield {
      spark.conf.set(key, n.toString)
      def rows(st: Slim.Stage1, c: Option[Array[(Long, Long)]]) =
        Slim.scorePairs(st, cfg, c).map(p => (p.uid, p.vid) -> (p.score, p.comparisons, p.alibis)).toMap
      val bf = withStage1(pair.e, pair.i, PrepCfg) { st =>
        (st.e, st.i, rows(st, None), rows(st, Some(candidates)))
      }
      // LSH with signatures finer than the scoring level: its own candidates.
      val fine = withStage1(pair.e, pair.i, FineCfg) { st =>
        val c = Slim.lshCandidates(st, FineLsh)
        (st.e, st.i, c.toSet, rows(st, Some(c)))
      }
      (n, bf, fine)
    } finally spark.conf.set(key, saved)
    val (_, (e0, i0, all0, some0), fine0) = runs.head
    assert(all0.nonEmpty && some0.nonEmpty && some0.size < all0.size)
    // Binned at the finer level, stage 1 counts the histories at the scoring level.
    assert(fine0._1 == e0 && fine0._2 == i0, "stage 1 with a finer signature level")
    assert(fine0._3.nonEmpty && fine0._4.keySet.subsetOf(fine0._3))
    for ((k, (s, comps, alibis)) <- fine0._4) {
      val (s0, comps0, alibis0) = all0(k)
      assert(comps == comps0 && alibis == alibis0 && math.abs(s - s0) <= 1e-12 * math.abs(s0),
        s"finer signature level, pair $k")
    }
    for ((n, (e, i, all, some), fine) <- runs.tail) {
      assert(e == e0 && i == i0, s"stage 1 at $n partitions")
      assert(fine._1 == e0 && fine._2 == i0 && fine._3 == fine0._3,
        s"stage 1 with a finer signature level at $n partitions")
      for ((name, got, want) <- Seq(("all pairs", all, all0), ("candidates", some, some0),
             ("finer-level candidates", fine._4, fine0._4))) {
        assert(got.keySet == want.keySet, s"$name at $n partitions: pairs")
        for ((k, (s, comps, alibis)) <- got) {
          val (s0, comps0, alibis0) = want(k)
          assert(comps == comps0 && alibis == alibis0, s"$name at $n partitions, pair $k counters")
          assert(math.abs(s - s0) <= 1e-12 * math.abs(s0), s"$name at $n partitions, pair $k: $s vs $s0")
        }
      }
    }
  }

  test("scoreEdges equals LocalReference without idf and norm") {
    val pair = genPair(8, 50, 0.7)
    val cfg = Similarity.ScoreConfig(runawayKm = RunawayKm, useIdf = false, useNorm = false)
    assertAgree(
      scoreAll(pair.e, pair.i, cfg),
      localScoreAll(collectRows(pair.e), collectRows(pair.i), cfg))
  }

  test("a brute-force link scores every window-sharing pair as LocalReference does") {
    val pair = genPair(10, 60, 0.7)
    val cfg = Slim.SlimConfig(level = Level, windowSec = WindowSec)
    val scores = Slim.link(spark, pair.e, pair.i, cfg).scores
    val dsE = LocalReference.Dataset.fromRecords(collectRows(pair.e), Level, WindowSec, BParam)
    val dsI = LocalReference.Dataset.fromRecords(collectRows(pair.i), Level, WindowSec, BParam)
    val sharing = for {
      (u, hu) <- dsE.histories.toSeq; (v, hv) <- dsI.histories.toSeq
      if hu.keySet.exists(hv.contains)
    } yield (u, v)
    assert(scores.keySet == sharing.toSet)
    for (((u, v), s) <- scores) {
      val ref = LocalReference.score(dsE, dsI, u, v, cfg.scoreConfig, BParam)
      assert(math.abs(s - ref) <= 1e-9, s"pair ($u, $v): link=$s local=$ref")
    }
  }

  test("true pairs outscore impostors on generated data") {
    val pair = genPair(12, 80, 0.8)
    val cfg = Similarity.ScoreConfig(runawayKm = RunawayKm)
    val scores = scoreAll(pair.e, pair.i, cfg)
    var wins = 0; var total = 0
    for ((u, v) <- pair.truth) {
      val own = scores.getOrElse((u, v), 0.0)
      val bestOther = scores.collect { case ((`u`, w), s) if w != v => s }
        .foldLeft(0.0)(math.max)
      total += 1; if (own > bestOther) wins += 1
    }
    assert(total > 0 && wins.toDouble / total >= 0.8, s"$wins of $total true pairs ranked first")
  }

  test("alibi counting: cross-city pairs carry alibis, co-located pairs do not") {
    // Two entities in SF, one in Sydney, sharing the same windows.
    val sf1 = (0 until 20).map(i => (1L, i * 900L + 10, 37.77 + (i % 3) * 0.01, -122.42))
    val sf2 = (0 until 20).map(i => (101L, i * 900L + 500, 37.77 + (i % 3) * 0.01, -122.42))
    val syd = (0 until 20).map(i => (102L, i * 900L + 500, -33.87, 151.21))
    val e = recordsDf(spark, sf1)
    val i = recordsDf(spark, sf2 ++ syd)
    val histE = Histories.build(e, Level, WindowSec)
    val histI = Histories.build(i, Level, WindowSec)
    val binsE = Histories.binsByWindow(histE, Histories.idf(histE, 1))
    val binsI = Histories.binsByWindow(histI, Histories.idf(histI, 2))
    val scored = Similarity.scoreEdges(binsE, binsI,
      Slim.allPairsCandidates(e, i),
      Histories.lengthNorm(histE, BParam), Histories.lengthNorm(histI, BParam),
      // idf off: with one entity per dataset every bin's idf is ln(1/1) = 0,
      // which would zero all contributions — proximity sign is under test here
      Similarity.ScoreConfig(runawayKm = 30.0, useIdf = false))
      .collect().map(r => (r.getLong(1), r.getDouble(2), r.getLong(4))).toSeq
    val toSf = scored.find(_._1 == 101L).get
    val toSyd = scored.find(_._1 == 102L).get
    assert(toSf._3 == 0 && toSf._2 > 0, "co-located pair: no alibis, positive score")
    assert(toSyd._3 > 0 && toSyd._2 < 0, "cross-city pair: alibis and negative score")
  }

  test("comparisons column counts bin-pair distance computations") {
    val e = recordsDf(spark, Seq((1L, 0L, 10.0, 10.0), (1L, 10L, 10.1, 10.0)))
    val i = recordsDf(spark, Seq((2L, 20L, 10.0, 10.0), (2L, 30L, 10.2, 10.0),
      (2L, 1000L, 10.0, 10.0)))
    val histE = Histories.build(e, Level, WindowSec)
    val histI = Histories.build(i, Level, WindowSec)
    val scored = Similarity.scoreEdges(
      Histories.binsByWindow(histE, Histories.idf(histE, 1)),
      Histories.binsByWindow(histI, Histories.idf(histI, 1)),
      Slim.allPairsCandidates(e, i),
      Histories.lengthNorm(histE, BParam), Histories.lengthNorm(histI, BParam),
      Similarity.ScoreConfig(runawayKm = 30.0)).collect()
    // window 0: E has 2 bins, I has 3 distinct cells... I's bins in window 0:
    // cells at 10.0 and 10.2 -> 2 bins (the ts=1000 record is window 1).
    // window 1: E has no bins -> no row. Total comparisons = 2*2 = 4.
    assert(scored.map(_.getLong(3)).sum == 4)
  }
}
