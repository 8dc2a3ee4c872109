package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.file.{Files, Paths}

import scala.collection.mutable
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core._
import repro.mobility.MobilityGen.GenRecord

/** The benchmark of `Slim.link`.
  *
  * One run links one workload's input, generated from `--seed`, in a closed
  * loop: one caller, one link at a time. It sets up several times (Spark
  * session, input, first link) and reports the median, then times warm links
  * for `--seconds` and reports their median. Every link's output is checked.
  * With `--trace 1` it also runs the pipeline's layers one by one from here,
  * forcing and timing each stage, and reports per-layer metrics.
  *
  * The last line of standard output is one JSON object:
  * `{"correct", "attempted", "failed", "metrics"}`.
  */
object Main {

  /** Set-ups per run; `setup_s` is their median. */
  val SetupRepeats = 3
  /** Warm links per run, at least; more while `--seconds` has not passed. */
  val MinWarmLinks = 2
  val RelTol = 1e-9

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean,
                        work: String, expected: String, record: Option[(Long, Long)])

  def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), m.getOrElse("seed", "0").toLong, m.getOrElse("seconds", "10").toInt,
      m.getOrElse("trace", "0") == "1", need("work"), need("expected"),
      m.get("record").map { r => val Array(a, b) = r.split("-"); (a.toLong, b.toLong) })
  }

  def cores: Int = math.min(4, Runtime.getRuntime.availableProcessors())

  /** A local session configured like the repo's spark-submit jobs, except
    * that shuffle partitions are twice the cores instead of 64: at 64, one
    * warm link of cab-bf15 took 13-15 s on a 4-vCPU VM, too long for a run
    * of about a minute.
    */
  def session(master: String, work: String): SparkSession =
    SparkSession.builder
      .master(master)
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", (2 * cores).toString)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", s"$work/spark-local")
      .config("spark.sql.warehouse.dir", s"$work/spark-warehouse")
      .getOrCreate()

  def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def timed[A](f: => A): (A, Double) = { val t0 = System.nanoTime(); val a = f; (a, secs(t0)) }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted; val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def close(a: Double, b: Double): Boolean =
    a == b || math.abs(a - b) <= RelTol * math.max(math.abs(a), math.abs(b))

  // ------------------------------------------------------------ expectations

  /** Values committed for one (workload, seed): input digest, candidate
    * pairs, bin-pair comparisons and the F1 of the links.
    */
  final case class Expected(digest: String, candidates: Long, comparisons: Long, f1: Double)

  def loadExpected(path: String): Map[(String, Long), Expected] =
    Files.readAllLines(Paths.get(path)).asScala.iterator
      .map(_.trim).filter(l => l.nonEmpty && !l.startsWith("#"))
      .map(_.split("\t")).map { f =>
        (f(0), f(1).toLong) -> Expected(f(2), f(3).toLong, f(4).toLong, f(5).toDouble)
      }.toMap

  // ------------------------------------------------------------------ oracle

  /** What a correct link of this input must return, computed in-core with
    * `LocalReference`, independently of the Spark pipeline.
    */
  final class Oracle(w: Workloads.Workload, in: Workloads.Input) {
    private val cfg = w.cfg
    private def ds(rows: IndexedSeq[GenRecord]) = LocalReference.Dataset.fromRecords(
      rows.map(r => (r.id, r.ts, r.lat, r.lon)), cfg.level, cfg.windowSec, cfg.bParam)
    val e: LocalReference.Dataset = ds(in.e)
    val i: LocalReference.Dataset = ds(in.i)

    def score(u: Long, v: Long): Double = LocalReference.score(e, i, u, v, cfg.scoreConfig, cfg.bParam)

    /** Brute force: every entity pair considered, and the §5.3 count of
      * bin-pair comparisons (per window, E's bins times I's bins).
      */
    lazy val bruteCandidates: Long = e.histories.size.toLong * i.histories.size
    lazy val bruteComparisons: Long = {
      def binsPerWin(d: LocalReference.Dataset) = d.histories.values.toSeq
        .flatMap(_.iterator.map { case (win, cells) => win -> cells.size.toLong })
        .groupMapReduce(_._1)(_._2)(_ + _)
      val be = binsPerWin(e); val bi = binsPerWin(i)
      be.iterator.map { case (win, n) => n * bi.getOrElse(win, 0L) }.sum
    }

    /** Brute force: greedy matching over every pair's reference score,
      * scored on `threads` threads.
      */
    def bruteMatched(threads: Int): Seq[Matching.Edge] = {
      val us = e.histories.keys.toIndexedSeq.sorted
      val vs = i.histories.keys.toIndexedSeq.sorted
      implicit val ec: ExecutionContext = ExecutionContext.global
      val parts = us.grouped(math.max(1, (us.size + threads - 1) / threads)).toSeq.map { chunk =>
        Future(for (u <- chunk; v <- vs; s = score(u, v) if s > 0) yield Matching.Edge(u, v, s))
      }
      Matching.greedy(parts.flatMap(Await.result(_, Duration.Inf)))
    }
  }

  /** Checks one link result; returns what is wrong with it, if anything. */
  def check(r: Slim.SlimResult, w: Workloads.Workload, in: Workloads.Input, oracle: Oracle,
            bruteMatched: => Seq[Matching.Edge], exp: Option[Expected]): Seq[String] = {
    val bad = mutable.ArrayBuffer.empty[String]
    val cut = Gmm.stopThreshold(r.matched.map(_.w).toArray)
    val expectLinks = r.matched.filter(_.w >= cut).map(e => (e.u, e.v, e.w))
    if (r.links != expectLinks) bad += s"links differ from the stop-threshold cut at $cut"
    if (w.cfg.lsh.isEmpty) {
      val ref = bruteMatched
      val refByPair = ref.map(e => (e.u, e.v) -> e.w).toMap
      if (r.matched.map(e => (e.u, e.v)).toSet != refByPair.keySet)
        bad += s"matched set differs from greedy over reference scores (${r.matched.size} vs ${ref.size})"
      else r.matched.find(e => !close(e.w, refByPair((e.u, e.v)))).foreach { e =>
        bad += s"matched weight ${e.w} of (${e.u}, ${e.v}) differs from ${refByPair((e.u, e.v))}"
      }
      if (r.nCandidates != oracle.bruteCandidates)
        bad += s"candidates ${r.nCandidates} != ${oracle.bruteCandidates}"
      if (r.comparisons != oracle.bruteComparisons)
        bad += s"comparisons ${r.comparisons} != ${oracle.bruteComparisons}"
    } else {
      r.matched.find(e => !close(e.w, oracle.score(e.u, e.v))).foreach { e =>
        bad += s"matched weight ${e.w} of (${e.u}, ${e.v}) differs from ${oracle.score(e.u, e.v)}"
      }
    }
    exp.foreach { x =>
      val f1 = f1Of(r, in)
      if (r.nCandidates != x.candidates) bad += s"candidates ${r.nCandidates} != committed ${x.candidates}"
      if (r.comparisons != x.comparisons) bad += s"comparisons ${r.comparisons} != committed ${x.comparisons}"
      if (f1 < x.f1 - 1e-12) bad += s"f1 $f1 dropped below committed ${x.f1}"
    }
    bad.toSeq
  }

  def f1Of(r: Slim.SlimResult, in: Workloads.Input): Double =
    Metrics.prf(r.links.map(l => (l._1, l._2)), in.truth).f1

  // ------------------------------------------------------------------ set-up

  final case class Setup(spark: SparkSession, e: DataFrame, i: DataFrame, in: Workloads.Input,
                         first: Slim.SlimResult, sessionS: Double, inputS: Double, firstLinkS: Double) {
    def totalS: Double = sessionS + inputS + firstLinkS
  }

  def setUp(w: Workloads.Workload, seed: Long, o: Opts): Setup = {
    val (spark, sessionS) = timed(session(s"local[$cores]", o.work))
    val ((in, e, i), inputS) = timed {
      val in = Workloads.sample(w, seed)
      val e = Workloads.toDf(spark, in.e).cache()
      val i = Workloads.toDf(spark, in.i).cache()
      e.count(); i.count()
      (in, e, i)
    }
    val (first, firstLinkS) = timed(Slim.link(spark, e, i, w.cfg))
    Setup(spark, e, i, in, first, sessionS, inputS, firstLinkS)
  }

  // ------------------------------------------------------------------- main

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val w = Workloads.byName(o.workload).getOrElse {
      System.err.println(s"unknown workload ${o.workload}; known: ${Workloads.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    o.record match {
      case Some((from, to)) => record(w, from to to, o)
      case None             => bench(w, o)
    }
  }

  /** Print the expected-values lines for `seeds`, one link each. */
  def record(w: Workloads.Workload, seeds: Seq[Long], o: Opts): Unit = {
    val spark = session(s"local[$cores]", o.work)
    for (seed <- seeds) {
      val in = Workloads.sample(w, seed)
      val e = Workloads.toDf(spark, in.e).cache()
      val i = Workloads.toDf(spark, in.i).cache()
      val r = Slim.link(spark, e, i, w.cfg)
      val oracle = new Oracle(w, in)
      val bad = check(r, w, in, oracle, oracle.bruteMatched(cores), None)
      require(bad.isEmpty, s"${w.name} seed $seed: ${bad.mkString("; ")}")
      println(Seq(w.name, seed, Workloads.digestOf(e, i), r.nCandidates, r.comparisons,
        f1Of(r, in)).mkString("\t"))
      e.unpersist(); i.unpersist()
    }
    spark.stop()
  }

  def bench(w: Workloads.Workload, o: Opts): Unit = {
    val exp = loadExpected(o.expected).get((w.name, o.seed))
    if (exp.isEmpty) System.err.println(s"no committed values for ${w.name} seed ${o.seed}; " +
      "checking against the in-core reference only")
    var failed = 0L
    val problems = mutable.ArrayBuffer.empty[String]

    // Set up several times; each set-up stops the previous session.
    val setups = mutable.ArrayBuffer.empty[Setup]
    for (_ <- 1 to SetupRepeats) {
      setups.lastOption.foreach(_.spark.stop())
      setups += setUp(w, o.seed, o)
    }
    val s = setups.last
    val in = s.in

    // Link results are checked after all timing, so checks do not disturb it.
    val results = mutable.ArrayBuffer.empty[Either[String, Slim.SlimResult]]
    def attempt(r: => Slim.SlimResult): Option[Slim.SlimResult] = {
      val res = try Right(r) catch { case t: Exception => Left(t.toString) }
      results += res
      res.toOption
    }
    setups.foreach(x => results += Right(x.first))

    // Warm links, untraced.
    val linkS = mutable.ArrayBuffer.empty[Double]
    val loop0 = System.nanoTime()
    while (linkS.size < MinWarmLinks || secs(loop0) < o.seconds) {
      val (_, t) = timed(attempt(Slim.link(s.spark, s.e, s.i, w.cfg)))
      linkS += t
    }
    val link = median(linkS.toSeq)
    val layers =
      if (o.trace) traced(w, s, link, problems, () => attempt(Slim.link(s.spark, s.e, s.i, w.cfg)))
      else Nil

    val digest = Workloads.digestOf(s.e, s.i)
    if (digest != Workloads.digest(in.e, in.i)) problems += s"Spark holds other rows than generated"
    exp.foreach(x => if (digest != x.digest) problems += s"input digest $digest != committed ${x.digest}")
    val oracle = new Oracle(w, in)
    lazy val bruteMatched = oracle.bruteMatched(cores)
    for (res <- results) {
      val bad = res.fold(Seq(_), check(_, w, in, oracle, bruteMatched, exp))
      if (bad.nonEmpty) { failed += 1; problems ++= bad.take(3) }
    }
    val attempted = results.size.toLong
    val result = s.first
    val f1 = f1Of(result, in)

    println(f"${w.name} seed ${o.seed}: ${in.records} records, ${in.truth.size} true pairs, input $digest")
    println(f"link_s ${link}%.4f s (median of ${linkS.size} warm links: ${linkS.map(x => f"$x%.3f").mkString(" ")}), " +
      f"setup_s ${median(setups.map(_.totalS).toSeq)}%.4f s (median of ${setups.map(x => f"${x.totalS}%.3f").mkString(" ")})")
    println(f"comparisons ${result.comparisons}, candidates ${result.nCandidates}, " +
      f"matched ${result.matched.size}, links ${result.links.size}, f1 $f1%.6f")

    val metrics: Seq[(String, Double, String)] =
      if (!o.trace) Seq(
        ("link_s", link, "s"),
        ("records_per_s", in.records / link, "1/s"),
        ("setup_s", median(setups.map(_.totalS).toSeq), "s"),
      )
      else Seq(
        ("setup.session_s", median(setups.map(_.sessionS).toSeq), "s"),
        ("setup.input_s", median(setups.map(_.inputS).toSeq), "s"),
        ("setup.first_link_s", median(setups.map(_.firstLinkS).toSeq), "s"),
      ) ++ layers
    s.e.unpersist(); s.i.unpersist()
    s.spark.stop()

    problems.distinct.foreach(p => System.err.println(s"CHECK FAILED: $p"))
    println(json(problems.isEmpty && failed == 0, attempted, failed, metrics))
  }

  // ------------------------------------------------------------ traced run

  /** The traced run: the real `Slim.link` under the listener, then each
    * layer's public functions in the order `Slim.link` calls them, each stage
    * forced and timed in a span of its own, then the in-core floor.
    */
  def traced(w: Workloads.Workload, s: Setup, linkS: Double, problems: mutable.Buffer[String],
             realLink: () => Option[Slim.SlimResult]): Seq[(String, Double, String)] = {
    val spark = s.spark
    val cfg = w.cfg
    val in = s.in
    val tr = new Tracer(spark.sparkContext)

    val real = tr.span("slim")(realLink())
    tr.drain()

    val cached = mutable.ArrayBuffer.empty[DataFrame]
    def force(df: DataFrame): (DataFrame, Long) = { val c = df.cache(); cached += c; (c, c.count()) }

    val staged = tr.span("link") {
      val (histE, histI) = tr.span("histories.build") {
        val (he, ne) = force(Histories.build(s.e, cfg.level, cfg.windowSec))
        val (hi, ni) = force(Histories.build(s.i, cfg.level, cfg.windowSec))
        tr.count("histories.records", in.records); tr.count("histories.bins", ne + ni)
        (he, hi)
      }
      val (idfE, idfI) = tr.span("histories.idf") {
        (force(Histories.idf(histE, Histories.nEntities(histE)))._1,
          force(Histories.idf(histI, Histories.nEntities(histI)))._1)
      }
      val (binsE, binsI) = tr.span("histories.bins_by_window") {
        val (be, ne) = force(Histories.binsByWindow(histE, idfE))
        val (bi, ni) = force(Histories.binsByWindow(histI, idfI))
        tr.count("histories.entity_windows", ne + ni)
        (be, bi)
      }
      val (lensE, lensI) = tr.span("histories.length_norm") {
        (force(Histories.lengthNorm(histE, cfg.bParam))._1, force(Histories.lengthNorm(histI, cfg.bParam))._1)
      }
      val cand = cfg.lsh match {
        case Some(l) =>
          val (sigE, sigI) = tr.span("lsh.signatures") {
            (force(Lsh.signatures(s.e, l, cfg.windowSec))._1, force(Lsh.signatures(s.i, l, cfg.windowSec))._1)
          }
          tr.span("lsh.candidates") {
            val q = sigE.select("qidx").union(sigI.select("qidx")).agg(min("qidx"), max("qidx")).first()
            val (_, r) = Lsh.bandsFor((q.getLong(1) - q.getLong(0) + 1).toInt, l.t)
            val (c, n) = force(Lsh.candidates(sigE, sigI, q.getLong(0), r, l.numBuckets))
            tr.count("candidates.pairs", n)
            c
          }
        case None =>
          tr.span("candidates.cross") {
            val (c, n) = force(Slim.allPairsCandidates(s.e, s.i))
            tr.count("candidates.pairs", n)
            c
          }
      }
      val scored = tr.span("similarity.score_edges") {
        val (sc, pairs) = force(Similarity.scoreEdges(binsE, binsI, cand, lensE, lensI, cfg.scoreConfig))
        val st = sc.agg(
          coalesce(sum("comparisons"), lit(0L)),
          coalesce(sum(when(col("alibis") > 0, 1L).otherwise(0L)), lit(0L)),
          coalesce(sum(when(col("score") > 0, 1L).otherwise(0L)), lit(0L))).first()
        tr.count("similarity.pairs", pairs); tr.count("similarity.comparisons", st.getLong(0))
        tr.count("similarity.alibi_pairs", st.getLong(1)); tr.count("similarity.positive_pairs", st.getLong(2))
        sc
      }
      val edges = tr.span("collect.edges") {
        scored.filter(col("score") > 0).select("uid", "vid", "score").collect()
          .map(r => Matching.Edge(r.getLong(0), r.getLong(1), r.getDouble(2))).toSeq
      }
      val matched = tr.span("matching.greedy")(Matching.greedy(edges))
      val weights = matched.map(_.w).toArray
      val gmm = tr.span("gmm.fit")(if (weights.length < 4) None else Some(Gmm.fit(weights)))
      val threshold = tr.span("gmm.threshold") {
        gmm.map(Gmm.selectThreshold(_, weights.min, weights.max)).getOrElse(Double.NegativeInfinity)
      }
      Staged(binsE, binsI, cand, edges, matched, gmm, matched.filter(_.w >= threshold))
    }
    tr.drain()

    real.foreach { r =>
      val same = r.matched.size == staged.matched.size &&
        r.matched.zip(staged.matched).forall { case (a, b) => a.u == b.u && a.v == b.v && close(a.w, b.w) } &&
        r.links.map(l => (l._1, l._2)) == staged.links.map(e => (e.u, e.v))
      if (!same) problems += "the staged layers disagree with Slim.link"
    }

    // In-core floor: the same shared-window pairs scored by one thread.
    val ref = tr.span("ref")(incoreScore(staged, cfg.scoreConfig))
    tr.drain()
    val sim = tr.named("similarity.score_edges")
    if (ref.comparisons != sim.counts("similarity.comparisons").toLong)
      problems += s"in-core comparisons ${ref.comparisons} != Spark's ${sim.counts("similarity.comparisons").toLong}"
    cached.foreach(_.unpersist())
    tr.stop()

    val spans = tr.all
    printSpans(tr, spans)
    val dur = spans.map(x => x.name -> x.durNs / 1e9).toMap.withDefaultValue(0.0)
    val counts = spans.flatMap(_.counts).toMap.withDefaultValue(0.0)
    val slimSpan = tr.named("slim")
    val sc = tr.counters(slimSpan)
    val root = tr.named("link")
    val candidates = counts("candidates.pairs")
    val truth = s.in.truth.toSet
    val kept = if (cfg.lsh.isDefined) staged.candPairs.count(truth) else 0
    val g = staged.gmm.getOrElse(Gmm.Gmm2(0.5, 0, 1, 0.5, 0, 1))
    val mb = 1024.0 * 1024.0
    val heapPeak = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == MemoryType.HEAP).map(_.getPeakUsage.getUsed).sum / mb
    println(f"north star ${w.name}: link_s $linkS%.4f s | comparisons ${counts("similarity.comparisons").toLong} " +
      f"| in-core score ${ref.seconds}%.4f s")
    Seq(
      ("slim.spark_jobs", sc.jobs.toDouble, "count"),
      ("slim.spark_stages", sc.stages.toDouble, "count"),
      ("slim.spark_tasks", sc.tasks.toDouble, "count"),
      ("slim.shuffle_write_mb", sc.shuffleWriteBytes / mb, "MB"),
      ("slim.shuffle_read_mb", sc.shuffleReadBytes / mb, "MB"),
      ("slim.spill_mb", sc.spillBytes / mb, "MB"),
      ("slim.task_run_s", sc.taskRunMs / 1e3, "s"),
      ("slim.task_gc_s", sc.taskGcMs / 1e3, "s"),
      ("slim.core_busy_ratio", sc.taskRunMs / 1e3 / (linkS * cores), "ratio"),
      ("slim.self_elapsed_s", real.map(_.elapsedMs / 1e3).getOrElse(0.0), "s"),
      ("histories.build_s", dur("histories.build"), "s"),
      ("histories.idf_s", dur("histories.idf"), "s"),
      ("histories.bins_by_window_s", dur("histories.bins_by_window"), "s"),
      ("histories.length_norm_s", dur("histories.length_norm"), "s"),
      ("histories.records", counts("histories.records"), "count"),
      ("histories.bins", counts("histories.bins"), "count"),
      ("histories.entity_windows", counts("histories.entity_windows"), "count"),
      ("lsh.signatures_s", dur("lsh.signatures"), "s"),
      ("lsh.candidates_s", dur("lsh.candidates"), "s"),
      ("lsh.candidates", if (cfg.lsh.isDefined) candidates else 0.0, "count"),
      ("lsh.candidate_recall", if (cfg.lsh.isDefined && truth.nonEmpty) kept.toDouble / truth.size else 0.0, "ratio"),
      ("lsh.candidate_precision", if (cfg.lsh.isDefined && candidates > 0) kept / candidates else 0.0, "ratio"),
      ("candidates.cross_s", dur("candidates.cross"), "s"),
      ("candidates.pairs", candidates, "count"),
      ("similarity.score_edges_s", dur("similarity.score_edges"), "s"),
      ("similarity.window_pairs", ref.windowPairs.toDouble, "count"),
      ("similarity.comparisons", counts("similarity.comparisons"), "count"),
      ("similarity.alibi_pairs", counts("similarity.alibi_pairs"), "count"),
      ("similarity.positive_edge_share",
        counts("similarity.positive_pairs") / math.max(1.0, counts("similarity.pairs")), "ratio"),
      ("similarity.comparisons_per_s", counts("similarity.comparisons") / dur("similarity.score_edges"), "1/s"),
      ("ref.incore_score_s", ref.seconds, "s"),
      ("similarity.overhead_x", dur("similarity.score_edges") / ref.seconds, "ratio"),
      ("collect.edges", staged.edges.size.toDouble, "count"),
      ("collect.edges_s", dur("collect.edges"), "s"),
      ("matching.greedy_s", dur("matching.greedy"), "s"),
      ("matching.matched", staged.matched.size.toDouble, "count"),
      ("gmm.fit_s", dur("gmm.fit"), "s"),
      ("gmm.threshold_s", dur("gmm.threshold"), "s"),
      ("gmm.separation", math.sqrt(2.0) * (g.mu2 - g.mu1) /
        math.sqrt(g.sigma1 * g.sigma1 + g.sigma2 * g.sigma2), "ratio"),
      ("gmm.links_share", staged.links.size.toDouble / math.max(1, staged.matched.size), "ratio"),
      ("f1", Metrics.prf(staged.links.map(e => (e.u, e.v)), in.truth).f1, "ratio"),
      ("trace.overhead_s", root.durNs / 1e9 - linkS, "s"),
      ("trace.uncovered_s", Spans.selfNs(root, spans) / 1e9, "s"),
      ("jvm.heap_peak_mb", heapPeak, "MB"),
    )
  }

  /** Outputs of the staged layers that later metrics need. */
  final case class Staged(binsE: DataFrame, binsI: DataFrame, cand: DataFrame,
                          edges: Seq[Matching.Edge], matched: Seq[Matching.Edge],
                          gmm: Option[Gmm.Gmm2], links: Seq[Matching.Edge]) {
    lazy val candPairs: Set[(Long, Long)] =
      cand.select("uid", "vid").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
  }

  final case class Incore(seconds: Double, windowPairs: Long, comparisons: Long)

  /** `Similarity.windowScore` over every shared window of every candidate
    * pair, on one thread, from bins collected to the driver. Only the scoring
    * loop is timed.
    */
  def incoreScore(st: Staged, cfg: Similarity.ScoreConfig): Incore = {
    def bins(df: DataFrame): Map[Long, Map[Long, IndexedSeq[Similarity.Bin]]] =
      df.select("id", "win", "bins").collect().toSeq.map { r =>
        (r.getLong(0), r.getLong(1),
          r.getSeq[org.apache.spark.sql.Row](2).map(b => Similarity.Bin(b.getLong(0), b.getDouble(1))).toIndexedSeq)
      }.groupBy(_._1).view.mapValues(_.map(t => t._2 -> t._3).toMap).toMap
    val be = bins(st.binsE); val bi = bins(st.binsI)
    val pairs = st.candPairs.toSeq.sorted
    var windowPairs = 0L; var comparisons = 0L; var sink = 0.0
    val t0 = System.nanoTime()
    for ((u, v) <- pairs; hu <- be.get(u); hv <- bi.get(v); (win, ub) <- hu; vb <- hv.get(win)) {
      val ws = Similarity.windowScore(ub, vb, cfg)
      windowPairs += 1; comparisons += ws.comparisons; sink += ws.raw
    }
    val t = secs(t0)
    require(!sink.isNaN)
    Incore(t, windowPairs, comparisons)
  }

  def printSpans(tr: Tracer, spans: Seq[Span]): Unit = {
    val depth = mutable.Map(-1 -> -1)
    println(f"${"span"}%-34s ${"total_ms"}%10s ${"self_ms"}%10s ${"jobs"}%5s ${"tasks"}%6s ${"shuf_mb"}%8s  counts")
    for (sp <- spans) {
      depth(sp.id) = depth(sp.parent) + 1
      val c = tr.counters(sp)
      val name = "  " * depth(sp.id) + sp.name
      println(f"$name%-34s ${sp.durNs / 1e6}%10.1f ${Spans.selfNs(sp, spans) / 1e6}%10.1f ${c.jobs}%5d " +
        f"${c.tasks}%6d ${(c.shuffleReadBytes + c.shuffleWriteBytes) / 1048576.0}%8.3f  " +
        sp.counts.toSeq.sorted.map { case (k, v) => s"$k=${v.toLong}" }.mkString(" "))
    }
    println(s"tasks outside any span: ${tr.unattributedTasks}")
  }

  def json(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[(String, Double, String)]): String = {
    def num(x: Double) = if (x.isNaN || x.isInfinite) "0" else java.lang.Double.toString(x)
    val ms = metrics.map { case (n, v, u) => s""""$n": {"value": ${num(v)}, "unit": "$u"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
