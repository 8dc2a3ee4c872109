package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

import scala.collection.mutable

/** Mobility history similarity (paper §3.1, Eq. 2, Alg. 1).
  *
  * Per shared temporal window, the bins of the two entities are paired by the
  * pairing function N (mutually nearest neighbours, computed greedily: take
  * the globally closest remaining cross pair, retire both bins, repeat until
  * the smaller side is exhausted). Each pair contributes
  * `P(e, i) * min(idf(e), idf(i))`; the per-entity-pair sum is then divided by
  * the BM25-style length norms `L(u) * L(v)`.
  *
  * The optional mutually-furthest-neighbour (MFN) pass re-pairs the same bins
  * by *largest* distance and adds a pair's contribution only when it is
  * negative (an alibi) and the pair was not already counted by MNN — the
  * paper's double-counting guard.
  */
object Similarity {

  /** How bins within a shared window are paired before aggregation. */
  sealed trait Pairing
  /** Paper default: MNN pairs plus the MFN alibi pass (Alg. 1). */
  case object MnnWithMfn extends Pairing
  /** Ablation: MNN pairs only (Fig. 10 "MNN"). */
  case object MnnOnly extends Pairing
  /** Ablation: full cross product of same-window bins (Fig. 10 "All Pairs"). */
  case object AllPairs extends Pairing

  /** Scoring configuration shared by the in-core and DataFrame paths. The
    * alibi penalty's clamp is the constant [[Proximity.DefaultFloor]].
    *
    * @param runawayKm runaway distance R for the similarity window width
    * @param pairing   bin pairing strategy (ablations)
    * @param useIdf    include the min-idf multiplier (Fig. 10 "No IDF" off)
    * @param useNorm   divide by L(u)L(v) (Fig. 10 "No Normalization" off)
    */
  final case class ScoreConfig(
      runawayKm: Double,
      pairing: Pairing = MnnWithMfn,
      useIdf: Boolean = true,
      useNorm: Boolean = true,
  )

  /** A leaf time-location bin restricted to one window: the cell plus the
    * smaller of its two dataset idf values' inputs (each side carries its own
    * dataset's idf; `min` is taken per pair at scoring time).
    */
  final case class Bin(cell: Long, idf: Double)

  /** Unnormalized per-window aggregation result.
    *
    * @param raw         sum of `P * minIdf` over the counted pairs
    * @param comparisons number of cell-distance computations performed — the
    *                    "pairwise record comparisons" cost metric of §5
    * @param alibiPairs  counted pairs with negative proximity
    */
  final case class WindowScore(raw: Double, comparisons: Long, alibiPairs: Long)

  /** One scored entity pair: its normalized score (Eq. 2) and its cost
    * counters summed over the shared windows.
    */
  final case class PairScore(uid: Long, vid: Long, score: Double, comparisons: Long, alibis: Long)

  /** Alg. 1 for one entity pair in one shared window, on primitive arrays.
    *
    * [[score]] pairs the bins `u = uCells(uFrom until uFrom + nu)` with
    * `v = vCells(vFrom until vFrom + nv)` and leaves the unnormalized sum in
    * [[raw]] and the counted negative-proximity pairs in [[alibis]]; the
    * comparisons are `nu * nv`. The cell distances are computed once into an
    * array; MNN (and MFN) take pairs greedily in an index sort of that array
    * ordered by `(d, cellU, cellV)` (`-d` for MFN), then by position, so
    * equal keys keep the order of the input. The MFN pass is skipped when no
    * pair is beyond R: it only adds negative proximities.
    *
    * The scratch arrays grow to the largest pair seen and are reused, so a
    * warm call allocates nothing. Not thread-safe: one kernel per task.
    */
  final class Kernel(cfg: ScoreConfig) {
    /** Unnormalized score of the last [[score]] call. */
    var raw = 0.0
    /** Counted pairs with negative proximity in the last [[score]] call. */
    var alibis = 0L

    private var dist = new Array[Double](16)
    private var order = new Array[Int](16)
    private var tmp = new Array[Int](16)
    private var counted = new Array[Boolean](16)
    private var usedU = new Array[Boolean](4)
    private var usedV = new Array[Boolean](4)
    // The current pair, read by the passes and the sort's comparison.
    private var uc: Array[Long] = _
    private var ui: Array[Double] = _
    private var vc: Array[Long] = _
    private var vi: Array[Double] = _
    private var uFrom, vFrom, nv = 0
    private var nearest = true

    def score(uCells: Array[Long], uIdf: Array[Double], uFrom: Int, nu: Int,
              vCells: Array[Long], vIdf: Array[Double], vFrom: Int, nv: Int): Unit = {
      raw = 0.0; alibis = 0L
      if (nu == 0 || nv == 0) return
      uc = uCells; ui = uIdf; vc = vCells; vi = vIdf
      this.uFrom = uFrom; this.vFrom = vFrom; this.nv = nv
      val m = nu * nv
      if (dist.length < m) {
        val cap = math.max(m, 2 * dist.length)
        dist = new Array[Double](cap); order = new Array[Int](cap)
        tmp = new Array[Int](cap); counted = new Array[Boolean](cap)
      }
      var maxD = 0.0
      var a = 0
      while (a < nu) {
        val cu = uc(uFrom + a)
        var b = 0
        while (b < nv) {
          val d = Grid.minDistanceKm(cu, vc(vFrom + b))
          dist(a * nv + b) = d
          if (d > maxD) maxD = d
          b += 1
        }
        a += 1
      }
      cfg.pairing match {
        case AllPairs =>
          var k = 0
          while (k < m) {
            val p = prox(dist(k))
            raw += p * weight(k / nv, k % nv)
            if (p < 0) alibis += 1
            k += 1
          }
        case MnnOnly | MnnWithMfn =>
          if (usedU.length < nu) usedU = new Array[Boolean](math.max(nu, 2 * usedU.length))
          if (usedV.length < nv) usedV = new Array[Boolean](math.max(nv, 2 * usedV.length))
          java.util.Arrays.fill(counted, 0, m, false)
          greedy(m, nu, mfn = false)
          if (cfg.pairing == MnnWithMfn && prox(maxD) < 0) greedy(m, nu, mfn = true)
      }
    }

    private def prox(d: Double): Double = Proximity.proximity(d, cfg.runawayKm)

    private def weight(a: Int, b: Int): Double =
      if (cfg.useIdf) math.min(ui(uFrom + a), vi(vFrom + b)) else 1.0

    /** One greedy pairing pass: MNN counts every pair it takes; MFN adds
      * only the negative pairs MNN did not count (Alg. 1).
      */
    private def greedy(m: Int, nu: Int, mfn: Boolean): Unit = {
      nearest = !mfn
      sortOrder(m)
      java.util.Arrays.fill(usedU, 0, nu, false)
      java.util.Arrays.fill(usedV, 0, nv, false)
      val target = math.min(nu, nv)
      var taken = 0; var x = 0
      while (taken < target && x < m) {
        val k = order(x)
        val a = k / nv; val b = k - a * nv
        if (!usedU(a) && !usedV(b)) {
          usedU(a) = true; usedV(b) = true; taken += 1
          val p = prox(dist(k))
          if (!mfn) {
            raw += p * weight(a, b)
            if (p < 0) alibis += 1
            counted(k) = true
          } else if (p < 0 && !counted(k)) {
            raw += p * weight(a, b); alibis += 1
          }
        }
        x += 1
      }
    }

    /** Whether pair `k` comes before pair `j` in the current pass's order. */
    private def before(k: Int, j: Int): Boolean = {
      val c =
        if (nearest) java.lang.Double.compare(dist(k), dist(j))
        else java.lang.Double.compare(-dist(k), -dist(j))
      if (c != 0) return c < 0
      val ak = k / nv; val aj = j / nv
      val cu = java.lang.Long.compare(uc(uFrom + ak), uc(uFrom + aj))
      if (cu != 0) return cu < 0
      val cv = java.lang.Long.compare(vc(vFrom + k - ak * nv), vc(vFrom + j - aj * nv))
      if (cv != 0) cv < 0 else k < j
    }

    /** `order(0 until m)` = the pair indices sorted by [[before]]: insertion
      * sort on runs of 16, then bottom-up merges through `tmp`.
      */
    private def sortOrder(m: Int): Unit = {
      var i = 0
      while (i < m) { order(i) = i; i += 1 }
      var lo = 0
      while (lo < m) {
        val hi = math.min(lo + 16, m)
        var x = lo + 1
        while (x < hi) {
          val k = order(x); var y = x - 1
          while (y >= lo && before(k, order(y))) { order(y + 1) = order(y); y -= 1 }
          order(y + 1) = k
          x += 1
        }
        lo = hi
      }
      var src = order; var dst = tmp; var width = 16
      while (width < m) {
        lo = 0
        while (lo < m) {
          val mid = math.min(lo + width, m); val hi = math.min(lo + 2 * width, m)
          var l = lo; var r = mid; var o = lo
          while (o < hi) {
            if (r >= hi || (l < mid && !before(src(r), src(l)))) { dst(o) = src(l); l += 1 }
            else { dst(o) = src(r); r += 1 }
            o += 1
          }
          lo = hi
        }
        val t = src; src = dst; dst = t; width *= 2
      }
      if (src ne order) System.arraycopy(src, 0, order, 0, m)
    }
  }

  /** Aggregate one shared window's bins into an unnormalized contribution. */
  def windowScore(us: IndexedSeq[Bin], vs: IndexedSeq[Bin], cfg: ScoreConfig): WindowScore = {
    val k = new Kernel(cfg)
    k.score(us.map(_.cell).toArray, us.map(_.idf).toArray, 0, us.length,
      vs.map(_.cell).toArray, vs.map(_.idf).toArray, 0, vs.length)
    WindowScore(k.raw, us.length.toLong * vs.length.toLong, k.alibis)
  }

  /** One dataset's bins in one window, grouped by entity: entity `ids(k)`
    * owns `cells(from(k) until from(k + 1))`, sorted by cell. `idf(j)` is
    * Eq. 3 for `cells(j)`: `ln(n / df)`, with df the number of this side's
    * rows in the window that hold the cell. Histories hold one row per
    * `(id, win, cell)`, so that is `|{u : e in H_u}|`, and `StrictMath.log`
    * is what Spark's `log` evaluates: the idf equals [[Histories.idf]]'s.
    */
  final class WindowSide(val ids: Array[Long], val from: Array[Int], val cells: Array[Long],
                         val idf: Array[Double])

  /** [[WindowSide]] from one window's `(id, cell)` history rows of a dataset
    * of `nEntities` entities.
    */
  def windowSide(rows: Iterator[(Long, Long)], nEntities: Long): WindowSide = {
    val bins = rows.toArray
    bins.sortInPlace()
    val cells = bins.map(_._2)
    val df = cells.groupMapReduce(identity)(_ => 1)(_ + _)
    val idf = cells.map(c => StrictMath.log(nEntities.toDouble / df(c)))
    val starts = bins.indices.filter(j => j == 0 || bins(j)._1 != bins(j - 1)._1)
    new WindowSide(starts.map(bins(_)._1).toArray, (starts :+ bins.length).toArray, cells, idf)
  }

  /** Candidate pairs indexed for [[scoreWindows]]: each `uid`'s `vid`s,
    * sorted.
    */
  def candidateIndex(pairs: Iterable[(Long, Long)]): Map[Long, Array[Long]] =
    pairs.groupMap(_._1)(_._2).map { case (u, vs) => u -> vs.toArray.sorted }

  /** Stage 3: scores every shared window, one pass over the histories'
    * partitions. `bins` are [[Histories.sideBins]] binned at `binLevel`;
    * each partition's windows are read whole and in ascending order
    * ([[Histories.windows]]), and their cells viewed at the scoring `level`
    * ([[Histories.cellsAt]]). Per window, each side's idf is counted among
    * its rows ([[windowSide]]) and every cross pair `(u, v)` is scored by one
    * [[Kernel]]; with `candidates` (an index from [[candidateIndex]]) only
    * the candidate pairs are scored. Each partition sums its windows'
    * `(raw, comparisons, alibis)` per pair, in window order, and emits one
    * `(uid, vid, raw, comparisons, alibis)` row per pair it saw: a pair's
    * rows from all partitions add up to its unnormalized totals, which the
    * caller sums ([[Slim.scorePairs]]) and divides by `L(u) L(v)`.
    */
  def scoreWindows(bins: RDD[Histories.SideBin], binLevel: Int, level: Int, nE: Long, nI: Long,
                   cfg: ScoreConfig, candidates: Option[Broadcast[Map[Long, Array[Long]]]] = None)
      : RDD[(Long, Long, Double, Long, Long)] =
    bins.mapPartitions { rows =>
      val keep = candidates.map(_.value).orNull
      val kernel = new Kernel(cfg)
      val sums = mutable.HashMap.empty[(Long, Long), (Double, Long, Long)]
      for ((_, es, is) <- Histories.windows(rows) if es.nonEmpty && is.nonEmpty) {
        val e = windowSide(Histories.cellsAt(es, binLevel, level), nE)
        val i = windowSide(Histories.cellsAt(is, binLevel, level), nI)
        for (x <- e.ids.indices) {
          val u = e.ids(x)
          val partners = if (keep == null) null else keep.getOrElse(u, Array.emptyLongArray)
          val nu = e.from(x + 1) - e.from(x)
          for (y <- i.ids.indices) {
            val v = i.ids(y)
            if (partners == null || java.util.Arrays.binarySearch(partners, v) >= 0) {
              val nv = i.from(y + 1) - i.from(y)
              kernel.score(e.cells, e.idf, e.from(x), nu, i.cells, i.idf, i.from(y), nv)
              val (r, c, a) = sums.getOrElse((u, v), (0.0, 0L, 0L))
              sums((u, v)) = (r + kernel.raw, c + nu.toLong * nv, a + kernel.alibis)
            }
          }
        }
      }
      sums.iterator.map { case ((u, v), (r, c, a)) => (u, v, r, c, a) }
    }

  /** Reference edge scoring: the row join on the shared window. It is not
    * on [[Slim.link]]'s path ([[scoreWindows]] is); the benchmark's staged
    * trace and the tests compare against it.
    *
    * Each candidate is joined to the windows of its `u` and then of its `v`,
    * so only candidate pairs are scored.
    *
    * @param binsE      `(id, win, bins)` from [[Histories.binsByWindow]] (dataset E)
    * @param binsI      same for dataset I
    * @param candidates `(uid, vid)` pairs to score, e.g.
    *                   [[Slim.allPairsCandidates]] or LSH output
    * @param lensE      `(id, nbins, lnorm)` from [[Histories.lengthNorm]] (E)
    * @param lensI      same for I
    * @return one row per candidate pair that shares at least one window:
    *         `(uid, vid, score, comparisons, alibis)`. The caller applies
    *         Alg. 1's "if S > 0" edge filter — the unfiltered rows carry the
    *         comparison counts (the §5 cost metric) and alibi counts.
    */
  def scoreEdges(binsE: DataFrame, binsI: DataFrame, candidates: DataFrame,
                 lensE: DataFrame, lensI: DataFrame, cfg: ScoreConfig): DataFrame = {
    val scoreUdf = udf { (u: Seq[Row], v: Seq[Row]) =>
      val ub = u.map(r => Bin(r.getLong(0), r.getDouble(1))).toIndexedSeq
      val vb = v.map(r => Bin(r.getLong(0), r.getDouble(1))).toIndexedSeq
      val ws = windowScore(ub, vb, cfg)
      (ws.raw, ws.comparisons, ws.alibiPairs)
    }
    val e = binsE.select(col("id").as("uid"), col("win"), col("bins").as("ubins"))
    val i = binsI.select(col("id").as("vid"), col("win"), col("bins").as("vbins"))
    val aggregated = candidates.join(e, Seq("uid")).join(i, Seq("vid", "win"))
      .withColumn("ws", scoreUdf(col("ubins"), col("vbins")))
      .groupBy("uid", "vid")
      .agg(
        sum(col("ws._1")).as("raw"),
        sum(col("ws._2")).as("comparisons"),
        sum(col("ws._3")).as("alibis"),
      )
    val lE = lensE.select(col("id").as("uid"), col("lnorm").as("ulen"))
    val lI = lensI.select(col("id").as("vid"), col("lnorm").as("vlen"))
    val scored =
      if (cfg.useNorm)
        aggregated.join(lE, "uid").join(lI, "vid")
          .withColumn("score", col("raw") / (col("ulen") * col("vlen")))
      else aggregated.withColumn("score", col("raw"))
    scored.select("uid", "vid", "score", "comparisons", "alibis")
  }
}
