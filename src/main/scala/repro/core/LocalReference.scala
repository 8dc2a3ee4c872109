package repro.core

/** Naive in-core reference implementation of the SLIM similarity score.
  *
  * Used as an independent cross-check for the DataFrame pipeline (property
  * tests assert both agree on random inputs) and by the spatial-level tuner,
  * which runs over small entity samples. It recomputes histories, idf and
  * length norms from raw record tuples with plain Scala collections, sharing
  * only the geometric primitives ([[Grid]], [[Proximity]]) and the per-window
  * pairing aggregation ([[Similarity.windowScore]]).
  */
object LocalReference {

  /** One location dataset reduced in-core: histories, idf and length norms. */
  final case class Dataset(
      histories: Map[Long, Map[Long, Map[Long, Long]]], // id -> win -> cell -> cnt
      idf: Map[(Long, Long), Double],                   // (win, cell) -> idf
      lnorm: Map[Long, Double],                         // id -> L(u)
  )

  object Dataset {
    /** Build from raw `(id, ts, lat, lon)` tuples. `bParam` is the BM25
      * length-normalisation weight b; the default 0.5 is the paper's.
      */
    def fromRecords(rows: Seq[(Long, Long, Double, Double)], level: Int,
                    windowSec: Long, bParam: Double = 0.5): Dataset = {
      val binned = rows.map { case (id, ts, lat, lon) =>
        (id, math.floorDiv(ts, windowSec), Grid.cellOf(lat, lon, level))
      }
      val histories: Map[Long, Map[Long, Map[Long, Long]]] =
        binned.groupBy(_._1).view.mapValues { rs =>
          rs.groupBy(_._2).view.mapValues { ws =>
            ws.groupBy(_._3).view.mapValues(_.size.toLong).toMap
          }.toMap
        }.toMap
      val n = histories.size
      val df = binned.map(t => (t._1, t._2, t._3)).distinct
        .groupBy(t => (t._2, t._3)).view.mapValues(_.map(_._1).distinct.size).toMap
      val idf = df.map { case (bin, d) => bin -> math.log(n.toDouble / d) }.toMap
      val sizes = histories.view.mapValues(_.valuesIterator.map(_.size).sum).toMap
      val avg = sizes.values.sum.toDouble / math.max(1, sizes.size)
      val lnorm = sizes.view.mapValues(s => (1 - bParam) + bParam * s / avg).toMap
      Dataset(histories, idf, lnorm)
    }
  }

  /** Similarity S(u, v) between entity `u` of dataset `e` and `v` of `i`.
    * `cfg.useNorm` selects whether the prebuilt norms are applied. `bParam`
    * is unused: the norms were fixed by [[Dataset.fromRecords]]' own b.
    */
  def score(e: Dataset, i: Dataset, u: Long, v: Long,
            cfg: Similarity.ScoreConfig, bParam: Double = 0.5): Double = {
    val hu = e.histories.getOrElse(u, Map.empty)
    val hv = i.histories.getOrElse(v, Map.empty)
    val shared = hu.keySet.intersect(hv.keySet)
    var raw = 0.0
    for (w <- shared) {
      val ub = hu(w).keys.toIndexedSeq.sorted
        .map(c => Similarity.Bin(c, e.idf.getOrElse((w, c), 0.0)))
      val vb = hv(w).keys.toIndexedSeq.sorted
        .map(c => Similarity.Bin(c, i.idf.getOrElse((w, c), 0.0)))
      raw += Similarity.windowScore(ub, vb, cfg).raw
    }
    if (cfg.useNorm) raw / (e.lnorm.getOrElse(u, 1.0) * i.lnorm.getOrElse(v, 1.0))
    else raw
  }
}
