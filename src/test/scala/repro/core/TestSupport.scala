package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{max, min}

/** Test-only helpers and oracles over the core types. */
object TestSupport {

  /** A location dataset `(id, ts, lat, lon)` from an in-memory record list. */
  def recordsDf(spark: SparkSession, rows: Seq[(Long, Long, Double, Double)]): DataFrame = {
    import spark.implicits._
    rows.toDF("id", "ts", "lat", "lon")
  }

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
}
