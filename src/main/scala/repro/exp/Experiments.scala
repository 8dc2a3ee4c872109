package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.baselines.{GM, STLink}
import repro.mobility.MobilityGen

/** Experiment harness reproducing the paper's evaluation (§5).
  *
  * The paper's evaluation is figure-based; each figure is reproduced as a
  * table of numbers (DESIGN.md T1–T10). Every function here is scale-
  * parameterized: bench suites call them at reduced scale (single node),
  * spark-submit jobs at larger scale. Paper-vs-measured values are recorded
  * in EXPERIMENTS.md.
  */
object Experiments {

  /** A sampled two-dataset scenario plus its ground truth. */
  final case class Scenario(name: String, pair: MobilityGen.SampledPair) {
    def e = pair.e
    def i = pair.i
    def truth = pair.truth
  }

  /** Cab-like scenario (one dense city, many records per entity). `n` is the
    * per-dataset entity count; ground truth holds `rho * n` common entities.
    */
  def cabScenario(spark: SparkSession, n: Int, recsPerEntity: Double, days: Int,
                  rho: Double, p: Double, seed: Long = 17): Scenario = {
    val ground = MobilityGen.ground(spark,
      MobilityGen.cabConfig(nEntities = 2 * n, recordsPerEntity = recsPerEntity,
        days = days, seed = seed)).cache()
    Scenario(s"cab(n=$n,recs=$recsPerEntity,rho=$rho,p=$p)",
      MobilityGen.samplePair(ground, n, rho, p))
  }

  /** SM-like scenario (many cities, few records per entity). */
  def smScenario(spark: SparkSession, n: Int, recsPerEntity: Double, days: Int,
                 rho: Double, p: Double, seed: Long = 19): Scenario = {
    val ground = MobilityGen.ground(spark,
      MobilityGen.smConfig(nEntities = 2 * n, recordsPerEntity = recsPerEntity,
        days = days, seed = seed)).cache()
    Scenario(s"sm(n=$n,recs=$recsPerEntity,rho=$rho,p=$p)",
      MobilityGen.samplePair(ground, n, rho, p))
  }

  /** One linkage run reduced to the numbers the paper plots. */
  final case class RunMetrics(precision: Double, recall: Double, f1: Double,
                              alibiEntityPairs: Long, comparisons: Long,
                              nCandidates: Long, elapsedMs: Long, threshold: Double,
                              gmm: Option[Gmm.Gmm2])

  def runSlim(spark: SparkSession, sc: Scenario, cfg: Slim.SlimConfig): RunMetrics = {
    val r = Slim.link(spark, sc.e, sc.i, cfg)
    val m = Metrics.prf(r.links.map(l => (l._1, l._2)), sc.truth)
    RunMetrics(m.precision, m.recall, m.f1, r.alibiEntityPairs, r.comparisons,
      r.nCandidates, r.elapsedMs, r.threshold, r.gmm)
  }

  // ---------------------------------------------------------------- T1 / T2

  final case class SpatioTemporalRow(level: Int, windowMin: Int,
                                     precision: Double, recall: Double, f1: Double,
                                     alibiPairs: Long, comparisons: Long)

  /** Fig 4/5: accuracy and cost as a function of (spatial level, window width),
    * brute force (the LSH sweep is T5).
    */
  def spatioTemporalSweep(spark: SparkSession, sc: Scenario, levels: Seq[Int],
                          windowsMin: Seq[Int]): Seq[SpatioTemporalRow] =
    for (lvl <- levels; w <- windowsMin) yield {
      val m = runSlim(spark, sc, Slim.SlimConfig(level = lvl, windowSec = w * 60L))
      SpatioTemporalRow(lvl, w, m.precision, m.recall, m.f1, m.alibiEntityPairs,
        m.comparisons)
    }

  // -------------------------------------------------------------------- T3

  final case class GmmRow(level: Int, windowMin: Int, mu1: Double, mu2: Double,
                          sigma1: Double, sigma2: Double, c1: Double,
                          threshold: Double, separation: Double,
                          precision: Double, recall: Double)

  /** Fig 6: the fitted mixture and detected stop threshold per spatial level
    * (paper: window width 90 min). `separation` is Ashman's D — how
    * distinguishable the two clusters are; the paper's reading is that
    * levels < 12 give subpar separation.
    */
  def gmmThresholdStudy(spark: SparkSession, sc: Scenario, levels: Seq[Int],
                        windowMin: Int = 90): Seq[GmmRow] =
    levels.map { lvl =>
      val m = runSlim(spark, sc, Slim.SlimConfig(level = lvl, windowSec = windowMin * 60L))
      val g = m.gmm.getOrElse(Gmm.Gmm2(0.5, 0, 1, 0.5, 0, 1))
      val sep = math.sqrt(2.0) * (g.mu2 - g.mu1) /
        math.sqrt(g.sigma1 * g.sigma1 + g.sigma2 * g.sigma2)
      GmmRow(lvl, windowMin, g.mu1, g.mu2, g.sigma1, g.sigma2, g.c1, m.threshold,
        sep, m.precision, m.recall)
    }

  // -------------------------------------------------------------------- T4

  final case class SensitivityRow(rho: Double, p: Double, avgRecords: Double,
                                  f1: Double, elapsedMs: Long)

  /** Fig 7: F1 and runtime vs record inclusion probability, per intersection
    * ratio. Scenarios are rebuilt per (rho, p) from the same ground trace.
    */
  def sensitivity(spark: SparkSession, mkScenario: (Double, Double) => Scenario,
                  rhos: Seq[Double], ps: Seq[Double],
                  cfg: Slim.SlimConfig = Slim.SlimConfig()): Seq[SensitivityRow] =
    for (rho <- rhos; p <- ps) yield {
      val sc = mkScenario(rho, p)
      val n = sc.e.count() + sc.i.count()
      val ents = sc.e.select("id").distinct().count() + sc.i.select("id").distinct().count()
      val m = runSlim(spark, sc, cfg)
      SensitivityRow(rho, p, n.toDouble / math.max(1, ents), m.f1, m.elapsedMs)
    }

  // -------------------------------------------------------------------- T5

  final case class LshLevelRow(sigLevel: Int, stepWindows: Int, relF1: Double,
                               speedup: Double, candidates: Long)

  /** Fig 8: relative F1 (LSH/brute-force) and comparison-count speed-up as a
    * function of signature spatial level and temporal step size.
    */
  def lshLevelSweep(spark: SparkSession, sc: Scenario, cfg: Slim.SlimConfig,
                    sigLevels: Seq[Int], steps: Seq[Int], t: Double = 0.6,
                    numBuckets: Int = 4096): Seq[LshLevelRow] = {
    val bf = runSlim(spark, sc, cfg)
    for (lvl <- sigLevels; step <- steps) yield {
      val lsh = runSlim(spark, sc, cfg.copy(lsh = Some(
        Lsh.LshConfig(t = t, sigLevel = lvl, stepWindows = step, numBuckets = numBuckets))))
      LshLevelRow(lvl, step,
        if (bf.f1 == 0) 0 else lsh.f1 / bf.f1,
        if (lsh.comparisons == 0) Double.PositiveInfinity
        else bf.comparisons.toDouble / lsh.comparisons,
        lsh.nCandidates)
    }
  }

  // -------------------------------------------------------------------- T6

  final case class LshBucketRow(buckets: Int, t: Double, relF1: Double, speedup: Double)

  /** Fig 9: speed-up vs the number of hash buckets, per LSH threshold. */
  def lshBucketSweep(spark: SparkSession, sc: Scenario, cfg: Slim.SlimConfig,
                     bucketCounts: Seq[Int], ts: Seq[Double],
                     sigLevel: Int = 16, stepWindows: Int = 48): Seq[LshBucketRow] = {
    val bf = runSlim(spark, sc, cfg)
    for (t <- ts; b <- bucketCounts) yield {
      val lsh = runSlim(spark, sc, cfg.copy(lsh = Some(
        Lsh.LshConfig(t = t, sigLevel = sigLevel, stepWindows = stepWindows,
          numBuckets = b))))
      LshBucketRow(b, t,
        if (bf.f1 == 0) 0 else lsh.f1 / bf.f1,
        if (lsh.comparisons == 0) Double.PositiveInfinity
        else bf.comparisons.toDouble / lsh.comparisons)
    }
  }

  // -------------------------------------------------------------------- T7

  final case class AblationRow(axis: String, value: Int, variant: String, f1: Double)

  val AblationVariants: Seq[(String, Slim.SlimConfig => Slim.SlimConfig)] = Seq(
    "SLIM" -> identity,
    "MNN" -> (c => c.copy(pairing = Similarity.MnnOnly)),
    "AllPairs" -> (c => c.copy(pairing = Similarity.AllPairs)),
    "NoIDF" -> (c => c.copy(useIdf = false)),
    "NoNorm" -> (c => c.copy(useNorm = false)),
  )

  /** Fig 10: F1 of each SLIM variant across a spatial-level sweep (fixed
    * window) and a window-width sweep (fixed level).
    */
  def ablation(spark: SparkSession, sc: Scenario, levels: Seq[Int],
               windowsMin: Seq[Int], baseLevel: Int = 14,
               baseWindowMin: Int = 15): Seq[AblationRow] = {
    val byLevel = for (lvl <- levels; (name, f) <- AblationVariants) yield {
      val m = runSlim(spark, sc, f(Slim.SlimConfig(level = lvl, windowSec = baseWindowMin * 60L)))
      AblationRow("level", lvl, name, m.f1)
    }
    val byWindow = for (w <- windowsMin; (name, f) <- AblationVariants) yield {
      val m = runSlim(spark, sc, f(Slim.SlimConfig(level = baseLevel, windowSec = w * 60L)))
      AblationRow("windowMin", w, name, m.f1)
    }
    byLevel ++ byWindow
  }

  // -------------------------------------------------------------------- T8

  final case class ComparisonRow(algo: String, avgRecords: Double, hitPrec40: Double,
                                 f1: Double, elapsedMs: Long, comparisons: Long)

  /** All pairwise SLIM scores (brute force) — the ranking behind SLIM's
    * Hit-Precision@k.
    */
  def slimScores(spark: SparkSession, sc: Scenario,
                 cfg: Slim.SlimConfig): Map[(Long, Long), Double] = {
    val stage1 = Slim.prepare(sc.e, sc.i, cfg)
    try Slim.scorePairs(stage1.e, stage1.i, cfg.scoreConfig).map(p => ((p.uid, p.vid), p.score)).toMap
    finally stage1.unpersist()
  }

  /** Fig 11a/b: SLIM (LSH), SLIM-noLSH, ST-Link and GM on datasets of
    * increasing record density: Hit-Precision@40, F1, runtime.
    */
  def comparison(spark: SparkSession, mkScenario: Double => Scenario,
                 avgRecords: Seq[Double], k: Int = 40,
                 cfg: Slim.SlimConfig = Slim.SlimConfig(),
                 lsh: Lsh.LshConfig = Lsh.LshConfig(t = 0.6, numBuckets = 4096),
                 includeGm: Boolean = true): Seq[ComparisonRow] =
    avgRecords.flatMap { recs =>
      val sc = mkScenario(recs)
      val pivots = sc.pair.pivotIds

      val scores = slimScores(spark, sc, cfg)
      val hpSlim = Metrics.hitPrecisionAtK(scores, pivots, sc.truth, k)

      val noLsh = runSlim(spark, sc, cfg)
      val withLsh = runSlim(spark, sc, cfg.copy(lsh = Some(lsh)))

      val st = STLink.run(spark, sc.e, sc.i,
        STLink.Config(level = cfg.level, windowSec = cfg.windowSec))
      val stPrf = Metrics.prf(st.links, sc.truth)
      val hpSt = Metrics.hitPrecisionAtK(st.scores, pivots, sc.truth, k)

      val base = Seq(
        ComparisonRow("SLIM", recs, hpSlim, withLsh.f1, withLsh.elapsedMs,
          withLsh.comparisons),
        ComparisonRow("SLIM-noLSH", recs, hpSlim, noLsh.f1, noLsh.elapsedMs,
          noLsh.comparisons),
        ComparisonRow("ST-Link", recs, hpSt, stPrf.f1, st.elapsedMs, st.comparisons),
      )
      if (!includeGm) base
      else {
        val gm = GM.run(spark, sc.e, sc.i)
        val gmPrf = Metrics.prf(gm.links.map(l => (l._1, l._2)), sc.truth)
        val hpGm = Metrics.hitPrecisionAtK(gm.scores, pivots, sc.truth, k)
        base :+ ComparisonRow("GM", recs, hpGm, gmPrf.f1, gm.elapsedMs, gm.comparisons)
      }
    }

  // -------------------------------------------------------------------- T9

  final case class ComparisonScaleRow(algo: String, rho: Double, avgRecords: Double,
                                      f1: Double, elapsedMs: Long, comparisons: Long)

  /** Fig 11c/d: SLIM (with LSH) vs ST-Link across record density and entity
    * intersection ratio: F1, runtime, pairwise comparisons.
    */
  def comparisonScale(spark: SparkSession, mkScenario: (Double, Double) => Scenario,
                      avgRecords: Seq[Double], rhos: Seq[Double],
                      cfg: Slim.SlimConfig = Slim.SlimConfig(),
                      lsh: Lsh.LshConfig = Lsh.LshConfig(t = 0.6, numBuckets = 4096))
      : Seq[ComparisonScaleRow] =
    for {
      recs <- avgRecords; rho <- rhos
      sc = mkScenario(recs, rho)
      row <- {
        val slim = runSlim(spark, sc, cfg.copy(lsh = Some(lsh)))
        val st = STLink.run(spark, sc.e, sc.i,
          STLink.Config(level = cfg.level, windowSec = cfg.windowSec))
        val stPrf = Metrics.prf(st.links, sc.truth)
        Seq(
          ComparisonScaleRow("SLIM", rho, recs, slim.f1, slim.elapsedMs, slim.comparisons),
          ComparisonScaleRow("ST-Link", rho, recs, stPrf.f1, st.elapsedMs, st.comparisons))
      }
    } yield row

  // ------------------------------------------------------------------- T10

  final case class TuningRow(dataset: String, chosenLevel: Int,
                             curve: Seq[(Int, Double)])

  /** §3.3: the auto-tuned spatial level per dataset. */
  def tuningStudy(spark: SparkSession, scs: Seq[(String, Scenario)], windowSec: Long,
                  levels: Seq[Int]): Seq[TuningRow] =
    scs.map { case (name, sc) =>
      val (lvl, curve) = Tuning.autoSpatialLevel(sc.e, windowSec, levels)
      TuningRow(name, lvl, curve)
    }

  // ------------------------------------------------------------- formatting

  /** Fixed-width table printer shared by jobs and bench suites. */
  def printTable(title: String, header: Seq[String], rows: Seq[Seq[Any]]): Unit = {
    val all = header +: rows.map(_.map {
      case d: Double => f"$d%.3f"
      case x => x.toString
    })
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    println(s"\n=== $title ===")
    println(fmt(all.head))
    println(widths.map("-" * _).mkString("  "))
    all.tail.foreach(r => println(fmt(r)))
  }
}
