package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.{Gmm, Grid, Matching}

/** GM baseline (Wang et al., NDSS 2018; paper §5.5, DESIGN S5).
  *
  * Learns a per-entity mobility model from dataset E — a Gaussian location
  * model per time-of-day slot plus a Markov transition model over coarse grid
  * cells — then scores every (u, v) pair by the average log-likelihood of
  * v's records (and transitions) under u's model. Unlike SLIM, records from
  * *different* temporal windows contribute (the slot model is periodic), and
  * there is no blocking: scoring is quadratic in the entity counts, which is
  * why the paper finds GM two orders of magnitude slower. The model's
  * settings are constants.
  *
  * As in the paper's comparison, SLIM's greedy matching and GMM stop
  * threshold are applied on top of GM's similarity scores to obtain links.
  */
object GM {

  /** Per-entity model: slot -> (meanLat, meanLon, sigmaLatDeg, sigmaLonDeg,
    * weight), a global fallback Gaussian, and Markov transition log-probs.
    */
  final case class Model(
      slotGauss: Map[Int, (Double, Double, Double, Double, Double)],
      global: (Double, Double, Double, Double),
      transLogP: Map[(Long, Long), Double],
      transFloor: Double,
  )

  /** @param comparisons record-model likelihood evaluations performed —
    *                     `|U_E| * |records_I|`; GM has no blocking, so this is
    *                     quadratic in the entity counts (the paper's reason it
    *                     is two orders of magnitude slower)
    */
  final case class Result(
      links: Seq[(Long, Long, Double)],
      scores: Map[(Long, Long), Double],
      threshold: Double,
      comparisons: Long,
      elapsedMs: Long,
  )

  private val KmPerDeg = 111.32

  private val Slots = 24                   // time-of-day slots of the location model
  private val MarkovLevel = 10             // grid level of the Markov transitions
  private val MinSigmaDeg = 0.5 / KmPerDeg // variance floor of the slot Gaussians: 0.5 km
  private val MarkovWeight = 0.3           // weight of the Markov term in the score

  private def slotOf(ts: Long): Int = ((ts % 86400) * Slots / 86400).toInt

  private def gauss(rows: Seq[(Double, Double)]): (Double, Double, Double, Double) = {
    val n = rows.size
    val mLat = rows.map(_._1).sum / n
    val mLon = rows.map(_._2).sum / n
    def sd(vs: Seq[Double], m: Double) =
      math.max(math.sqrt(vs.map(v => (v - m) * (v - m)).sum / n), MinSigmaDeg)
    (mLat, mLon, sd(rows.map(_._1), mLat), sd(rows.map(_._2), mLon))
  }

  /** Fit one entity's model from its `(ts, lat, lon)` records. */
  def fitModel(records: Seq[(Long, Double, Double)]): Model = {
    val bySlot = records.groupBy(r => slotOf(r._1))
    val n = records.size.toDouble
    val slotGauss = bySlot.map { case (s, rs) =>
      val (a, b, c, d) = gauss(rs.map(r => (r._2, r._3)))
      s -> (a, b, c, d, rs.size / n)
    }
    val global = gauss(records.map(r => (r._2, r._3)))
    // Markov transitions between consecutive records' coarse cells.
    val cells = records.sortBy(_._1).map(r => Grid.cellOf(r._2, r._3, MarkovLevel))
    val trans = cells.zip(cells.drop(1)).groupBy(identity).view.mapValues(_.size).toMap
    val outTotals = trans.groupBy(_._1._1).view.mapValues(_.values.sum).toMap
    val nStates = math.max(1, cells.distinct.size)
    val transLogP = trans.map { case ((a, b), c) =>
      (a, b) -> math.log((c + 1.0) / (outTotals(a) + nStates))
    }.toMap
    val transFloor = math.log(1.0 / (records.size + nStates))
    Model(slotGauss, global, transLogP, transFloor)
  }

  private def logNorm(x: Double, mu: Double, sigma: Double): Double = {
    val z = (x - mu) / sigma
    -0.5 * z * z - math.log(sigma) - 0.5 * math.log(2 * math.Pi)
  }

  /** Average log-likelihood of `records` (one candidate partner's trace)
    * under `m`: 0.7 slot-model + 0.3 global blend per record, plus the
    * Markov transition term.
    */
  def score(m: Model, records: Seq[(Long, Double, Double)]): Double = {
    if (records.isEmpty) return Double.NegativeInfinity
    def ll(lat: Double, lon: Double, g: (Double, Double, Double, Double)): Double =
      logNorm(lat, g._1, g._3) + logNorm(lon, g._2, g._4)
    val locScore = records.map { case (ts, lat, lon) =>
      val gl = ll(lat, lon, m.global)
      m.slotGauss.get(slotOf(ts)) match {
        case Some((a, b, c, d, _)) =>
          val sl = ll(lat, lon, (a, b, c, d))
          math.log(0.7 * math.exp(math.min(0.0, sl - gl)) + 0.3) + gl // stable blend
        case None => gl
      }
    }.sum / records.size
    val cells = records.sortBy(_._1).map(r => Grid.cellOf(r._2, r._3, MarkovLevel))
    val pairs = cells.zip(cells.drop(1))
    val markov =
      if (pairs.isEmpty) 0.0
      else pairs.map(p => m.transLogP.getOrElse(p, m.transFloor)).sum / pairs.size
    locScore + MarkovWeight * markov
  }

  /** Run GM linkage: fit models on E, score all (u, v) pairs, then apply
    * SLIM's matching + stop threshold over the scores.
    */
  def run(spark: SparkSession, recordsE: DataFrame, recordsI: DataFrame): Result = {
    import spark.implicits._
    val t0 = System.nanoTime()

    val models: Map[Long, Model] = recordsE
      .select("id", "ts", "lat", "lon").as[(Long, Long, Double, Double)]
      .collect().toSeq.groupBy(_._1)
      .map { case (id, rs) => id -> fitModel(rs.map(r => (r._2, r._3, r._4))) }
    val bModels = spark.sparkContext.broadcast(models)
    val uids = models.keys.toSeq.sorted

    val tracesI = recordsI.select("id", "ts", "lat", "lon")
      .as[(Long, Long, Double, Double)].rdd
      .groupBy(_._1)
      .mapValues(_.toSeq.map(r => (r._2, r._3, r._4)))

    val scores: Map[(Long, Long), Double] = tracesI
      .flatMap { case (vid, trace) =>
        val ms = bModels.value
        uids.map(uid => ((uid, vid), score(ms(uid), trace)))
      }
      .collect().toMap

    // GM log-likelihoods are negative; shift so matching/threshold machinery
    // (which drops score <= 0 edges) sees positive weights with unchanged order.
    val finite = scores.filter(t => java.lang.Double.isFinite(t._2))
    val shift = if (finite.isEmpty) 0.0 else -finite.values.min + 1e-6
    val edges = finite.toSeq.map { case ((u, v), s) => Matching.Edge(u, v, s + shift) }
    val matched = Matching.greedy(edges)
    val ws = matched.map(_.w).toArray
    val threshold = Gmm.stopThreshold(ws)
    val links = matched.filter(_.w >= threshold).map(e => (e.u, e.v, e.w - shift))

    val comparisons = uids.size.toLong * recordsI.count()
    Result(links, scores, threshold - shift, comparisons,
      (System.nanoTime() - t0) / 1000000L)
  }
}
