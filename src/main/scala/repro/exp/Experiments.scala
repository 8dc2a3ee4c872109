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
  * spark-submit jobs at larger scale. Each table's row type defines its
  * columns, so [[printTable]] prints the same table for both. Paper-vs-
  * measured values are recorded in EXPERIMENTS.md.
  */
object Experiments {

  /** A row of one evaluation table: its column names and its cells, in the
    * same order. [[printTable]] formats a `Double` cell with `%.3f`. The
    * tables whose cells are all numbers hold them as Doubles, so their counts
    * print as `8.000`: that is the text these tables have always had.
    */
  trait TableRow {
    def header: Seq[String]
    def cells: Seq[Any]
  }

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
                  rho: Double, p: Double): Scenario =
    scenario(spark, "cab", MobilityGen.cabConfig(2 * n, recsPerEntity, days), n, rho, p)

  /** SM-like scenario (many cities, few records per entity). */
  def smScenario(spark: SparkSession, n: Int, recsPerEntity: Double, days: Int,
                 rho: Double, p: Double): Scenario =
    scenario(spark, "sm", MobilityGen.smConfig(2 * n, recsPerEntity, days), n, rho, p)

  /** `n` entities per dataset sampled from the cached ground trace of `gen`. */
  private def scenario(spark: SparkSession, kind: String, gen: MobilityGen.GenConfig, n: Int,
                       rho: Double, p: Double): Scenario = {
    val ground = MobilityGen.ground(spark, gen).cache()
    Scenario(s"$kind(n=$n,recs=${gen.recordsPerEntity},rho=$rho,p=$p)",
      MobilityGen.samplePair(ground, n, rho, p))
  }

  /** One linkage run reduced to the numbers the paper plots. */
  final case class RunMetrics(precision: Double, recall: Double, f1: Double,
                              alibiEntityPairs: Long, comparisons: Long,
                              nCandidates: Long, elapsedMs: Long, threshold: Double,
                              gmm: Option[Gmm.Gmm2])

  def runSlim(spark: SparkSession, sc: Scenario, cfg: Slim.SlimConfig): RunMetrics =
    runMetrics(sc, Slim.link(spark, sc.e, sc.i, cfg))

  /** [[runSlim]]'s numbers of a link already run on `sc`. */
  def runMetrics(sc: Scenario, r: Slim.SlimResult): RunMetrics = {
    val m = Metrics.prf(r.links.map(l => (l._1, l._2)), sc.truth)
    RunMetrics(m.precision, m.recall, m.f1, r.alibiEntityPairs, r.comparisons,
      r.nCandidates, r.elapsedMs, r.threshold, r.gmm)
  }

  // ---------------------------------------------------------------- T1 / T2

  final case class SpatioTemporalRow(level: Int, windowMin: Int,
                                     precision: Double, recall: Double, f1: Double,
                                     alibiPairs: Long, comparisons: Long)
      extends TableRow {
    def header = Seq("level", "winMin", "precision", "recall", "f1", "alibiPairs", "comparisons")
    def cells: Seq[Double] = Seq(level, windowMin, precision, recall, f1, alibiPairs.toDouble,
      comparisons.toDouble)
  }

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

  final case class GmmRow(level: Int, mu1: Double, mu2: Double,
                          sigma1: Double, sigma2: Double, c1: Double,
                          threshold: Double, separation: Double,
                          precision: Double, recall: Double) extends TableRow {
    def header = Seq("level", "mu1", "mu2", "sigma1", "sigma2", "c1", "threshold",
      "separation", "precision", "recall")
    def cells: Seq[Double] = Seq(level, mu1, mu2, sigma1, sigma2, c1, threshold, separation,
      precision, recall)
  }

  /** Fig 6: the fitted mixture and detected stop threshold per spatial level
    * (paper: window width 90 min). `separation` is Ashman's D
    * ([[Gmm.separation]]); the paper's reading is that levels < 12 give
    * subpar separation.
    */
  def gmmThresholdStudy(spark: SparkSession, sc: Scenario, levels: Seq[Int]): Seq[GmmRow] =
    levels.map { lvl =>
      val m = runSlim(spark, sc, Slim.SlimConfig(level = lvl, windowSec = 90 * 60L))
      val g = m.gmm.getOrElse(Gmm.Gmm2(0.5, 0, 1, 0.5, 0, 1))
      GmmRow(lvl, g.mu1, g.mu2, g.sigma1, g.sigma2, g.c1, m.threshold,
        Gmm.separation(g), m.precision, m.recall)
    }

  // -------------------------------------------------------------------- T4

  final case class SensitivityRow(rho: Double, p: Double, avgRecords: Double,
                                  f1: Double, elapsedMs: Long) extends TableRow {
    def header = Seq("rho", "p", "avgRecords", "f1", "elapsedMs")
    def cells: Seq[Double] = Seq(rho, p, avgRecords, f1, elapsedMs.toDouble)
  }

  /** Fig 7: F1 and runtime vs record inclusion probability, per intersection
    * ratio. Scenarios are rebuilt per (rho, p) from the same ground trace.
    */
  def sensitivity(spark: SparkSession, mkScenario: (Double, Double) => Scenario,
                  rhos: Seq[Double], ps: Seq[Double]): Seq[SensitivityRow] =
    for (rho <- rhos; p <- ps) yield {
      val sc = mkScenario(rho, p)
      val n = sc.e.count() + sc.i.count()
      val ents = sc.e.select("id").distinct().count() + sc.i.select("id").distinct().count()
      val m = runSlim(spark, sc, Slim.SlimConfig())
      SensitivityRow(rho, p, n.toDouble / math.max(1, ents), m.f1, m.elapsedMs)
    }

  // -------------------------------------------------------------------- T5

  final case class LshLevelRow(sigLevel: Int, stepWindows: Int, relF1: Double,
                               speedup: Double, candidates: Long) extends TableRow {
    def header = Seq("sigLevel", "step", "relF1", "speedup", "candidates")
    def cells: Seq[Double] = Seq(sigLevel, stepWindows, relF1, speedup, candidates.toDouble)
  }

  /** Fig 8: relative F1 (LSH/brute-force) and comparison-count speed-up as a
    * function of signature spatial level and temporal step size.
    */
  def lshLevelSweep(spark: SparkSession, sc: Scenario, sigLevels: Seq[Int],
                    steps: Seq[Int]): Seq[LshLevelRow] =
    lshVsBruteForce(spark, sc,
      for (lvl <- sigLevels; step <- steps) yield Lsh.LshConfig(sigLevel = lvl, stepWindows = step))
      .map { case (lsh, m, relF1, speedup) =>
        LshLevelRow(lsh.sigLevel, lsh.stepWindows, relF1, speedup, m.nCandidates)
      }

  // -------------------------------------------------------------------- T6

  final case class LshBucketRow(buckets: Int, t: Double, relF1: Double, speedup: Double)
      extends TableRow {
    def header = Seq("t", "buckets", "relF1", "speedup")
    def cells: Seq[Double] = Seq(t, buckets, relF1, speedup)
  }

  /** Fig 9: speed-up vs the number of hash buckets, per LSH threshold, at
    * signature level `sigLevel` and step `stepWindows`.
    */
  def lshBucketSweep(spark: SparkSession, sc: Scenario, bucketCounts: Seq[Int],
                     ts: Seq[Double], sigLevel: Int, stepWindows: Int): Seq[LshBucketRow] =
    lshVsBruteForce(spark, sc,
      for (t <- ts; b <- bucketCounts) yield Lsh.LshConfig(t = t, sigLevel = sigLevel,
        stepWindows = stepWindows, numBuckets = b))
      .map { case (lsh, _, relF1, speedup) => LshBucketRow(lsh.numBuckets, lsh.t, relF1, speedup) }

  /** One brute-force link, then one link per LSH config, in order. Each LSH
    * run comes back with its config, its metrics, its F1 relative to brute
    * force and its comparison-count speed-up (`+inf` when it made no
    * comparisons).
    */
  private def lshVsBruteForce(spark: SparkSession, sc: Scenario, lshs: Seq[Lsh.LshConfig])
      : Seq[(Lsh.LshConfig, RunMetrics, Double, Double)] = {
    val cfg = Slim.SlimConfig()
    val bf = runSlim(spark, sc, cfg)
    lshs.map { lsh =>
      val m = runSlim(spark, sc, cfg.copy(lsh = Some(lsh)))
      (lsh, m, if (bf.f1 == 0) 0 else m.f1 / bf.f1,
        if (m.comparisons == 0) Double.PositiveInfinity else bf.comparisons.toDouble / m.comparisons)
    }
  }

  // -------------------------------------------------------------------- T7

  final case class AblationRow(axis: String, value: Int, variant: String, f1: Double)

  /** One line of the Fig 10 tables: the F1 of every [[AblationVariants]]
    * entry at one `value` of `axis`.
    */
  final case class AblationPivotRow(axis: String, value: Int, f1s: Seq[Double])
      extends TableRow {
    def header = axis +: AblationVariants.map(_._1)
    def cells: Seq[Any] = value +: f1s
  }

  val AblationVariants: Seq[(String, Slim.SlimConfig => Slim.SlimConfig)] = Seq(
    "SLIM" -> identity,
    "MNN" -> (c => c.copy(pairing = Similarity.MnnOnly)),
    "AllPairs" -> (c => c.copy(pairing = Similarity.AllPairs)),
    "NoIDF" -> (c => c.copy(useIdf = false)),
    "NoNorm" -> (c => c.copy(useNorm = false)),
  )

  /** Fig 10: F1 of each SLIM variant across a spatial-level sweep (15-min
    * window) and a window-width sweep (level 14).
    */
  def ablation(spark: SparkSession, sc: Scenario, levels: Seq[Int],
               windowsMin: Seq[Int]): Seq[AblationRow] = {
    val byLevel = for (lvl <- levels; (name, f) <- AblationVariants) yield {
      val m = runSlim(spark, sc, f(Slim.SlimConfig(level = lvl, windowSec = 15 * 60L)))
      AblationRow("level", lvl, name, m.f1)
    }
    val byWindow = for (w <- windowsMin; (name, f) <- AblationVariants) yield {
      val m = runSlim(spark, sc, f(Slim.SlimConfig(level = 14, windowSec = w * 60L)))
      AblationRow("windowMin", w, name, m.f1)
    }
    byLevel ++ byWindow
  }

  /** The Fig 10 tables, one per axis of [[ablation]]'s rows, each with one
    * row per swept value, ascending.
    */
  def ablationTables(rows: Seq[AblationRow]): Seq[(String, Seq[AblationPivotRow])] =
    rows.map(_.axis).distinct.map { axis =>
      axis -> rows.filter(_.axis == axis).map(_.value).distinct.sorted.map { v =>
        AblationPivotRow(axis, v, AblationVariants.map { case (name, _) =>
          rows.find(r => r.axis == axis && r.value == v && r.variant == name).get.f1
        })
      }
    }

  // -------------------------------------------------------------------- T8

  /** The k of Fig 11a's Hit-Precision@k. */
  val HitPrecisionK = 40

  final case class ComparisonRow(algo: String, avgRecords: Double, hitPrec40: Double,
                                 f1: Double, elapsedMs: Long, comparisons: Long)
      extends TableRow {
    def header =
      Seq("algo", "avgRecords", s"hitPrec@$HitPrecisionK", "f1", "elapsedMs", "comparisons")
    def cells: Seq[Any] = Seq(algo, avgRecords, hitPrec40, f1, elapsedMs, comparisons)
  }

  /** The LSH setting of SLIM in Fig 11: cab's accuracy-preserving signature
    * setting (T5; the paper's S2 level 16, step 48).
    */
  val ComparisonLsh = Lsh.LshConfig(t = 0.5, sigLevel = 14, stepWindows = 48)

  /** Fig 11a/b: SLIM (LSH), SLIM-noLSH, ST-Link and GM on datasets of
    * increasing record density: Hit-Precision@40, F1, runtime. SLIM's
    * Hit-Precision@40 ranks every pair sharing a window by its brute-force
    * score, from the SLIM-noLSH run.
    */
  def comparison(spark: SparkSession, mkScenario: Double => Scenario,
                 avgRecords: Seq[Double]): Seq[ComparisonRow] =
    avgRecords.flatMap { recs =>
      val sc = mkScenario(recs)
      val pivots = sc.pair.pivotIds
      val cfg = Slim.SlimConfig()

      val bruteForce = Slim.link(spark, sc.e, sc.i, cfg)
      val hpSlim = Metrics.hitPrecisionAtK(bruteForce.scores, pivots, sc.truth, HitPrecisionK)
      val noLsh = runMetrics(sc, bruteForce)
      val withLsh = runSlim(spark, sc, cfg.copy(lsh = Some(ComparisonLsh)))

      val st = STLink.run(spark, sc.e, sc.i,
        STLink.Config(level = cfg.level, windowSec = cfg.windowSec))
      val stPrf = Metrics.prf(st.links, sc.truth)
      val hpSt = Metrics.hitPrecisionAtK(st.scores, pivots, sc.truth, HitPrecisionK)

      val gm = GM.run(spark, sc.e, sc.i)
      val gmPrf = Metrics.prf(gm.links.map(l => (l._1, l._2)), sc.truth)
      val hpGm = Metrics.hitPrecisionAtK(gm.scores, pivots, sc.truth, HitPrecisionK)

      Seq(
        ComparisonRow("SLIM", recs, hpSlim, withLsh.f1, withLsh.elapsedMs,
          withLsh.comparisons),
        ComparisonRow("SLIM-noLSH", recs, hpSlim, noLsh.f1, noLsh.elapsedMs,
          noLsh.comparisons),
        ComparisonRow("ST-Link", recs, hpSt, stPrf.f1, st.elapsedMs, st.comparisons),
        ComparisonRow("GM", recs, hpGm, gmPrf.f1, gm.elapsedMs, gm.comparisons))
    }

  // -------------------------------------------------------------------- T9

  final case class ComparisonScaleRow(algo: String, rho: Double, avgRecords: Double,
                                      f1: Double, elapsedMs: Long, comparisons: Long)
      extends TableRow {
    def header = Seq("algo", "rho", "avgRecords", "f1", "elapsedMs", "comparisons")
    def cells: Seq[Any] = Seq(algo, rho, avgRecords, f1, elapsedMs, comparisons)
  }

  /** Fig 11c/d: SLIM (with LSH) vs ST-Link across record density and entity
    * intersection ratio: F1, runtime, pairwise comparisons.
    */
  def comparisonScale(spark: SparkSession, mkScenario: (Double, Double) => Scenario,
                      avgRecords: Seq[Double], rhos: Seq[Double]): Seq[ComparisonScaleRow] =
    for {
      recs <- avgRecords; rho <- rhos
      sc = mkScenario(recs, rho)
      row <- {
        val cfg = Slim.SlimConfig()
        val slim = runSlim(spark, sc, cfg.copy(lsh = Some(ComparisonLsh)))
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
                             curve: Seq[(Int, Double)]) extends TableRow {
    def header = Seq("dataset", "chosenLevel", "curve")
    def cells: Seq[Any] = Seq(dataset, chosenLevel,
      curve.map { case (l, v) => f"$l:$v%.3f" }.mkString(" "))
  }

  /** §3.3: the auto-tuned spatial level per dataset. */
  def tuningStudy(scs: Seq[(String, Scenario)], windowSec: Long,
                  levels: Seq[Int]): Seq[TuningRow] =
    scs.map { case (name, sc) =>
      val (lvl, curve) = Tuning.autoSpatialLevel(sc.e, windowSec, levels)
      TuningRow(name, lvl, curve)
    }

  // ------------------------------------------------------------- formatting

  /** Fixed-width table printer shared by jobs and bench suites; the header
    * is the rows' own.
    */
  def printTable(title: String, rows: Seq[TableRow]): Unit = {
    val header = rows.headOption.fold(Seq.empty[String])(_.header)
    val all = header +: rows.map(_.cells.map {
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
