package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Encoder, Encoders}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.expressions.UserDefinedFunction

/** Mobility history construction (paper §2.3) as DataFrame transformations.
  *
  * A location dataset is a DataFrame with columns
  * `(id: Long, ts: Long /*epoch seconds*/, lat: Double, lon: Double)`.
  * Its mobility histories are the leaf-level time-location bins:
  * `(id, win, cell, cnt)` where `win = floor(ts / windowSec)` and `cell` is
  * the [[Grid]] cell id of `(lat, lon)` at the configured spatial level.
  */
object Histories {

  /** Expected input schema of a location dataset. */
  val RecordColumns: Seq[String] = Seq("id", "ts", "lat", "lon")

  /** UDF mapping (lat, lon) to a packed Grid cell id at `level`. */
  def cellUdf(level: Int): UserDefinedFunction =
    udf((lat: Double, lon: Double) => Grid.cellOf(lat, lon, level))

  /** Leaf-level time-location bins: one row per (id, win, cell) with the
    * record count `cnt`. This is the DataFrame equivalent of the leaf level of
    * the paper's mobility history tree.
    *
    * The output is hash-partitioned by `win` (into
    * `spark.sql.shuffle.partitions` partitions), so all rows of a window are
    * in one partition: the idf per `(win, cell)` and stage 3's scoring of
    * each window ([[Similarity.scoreWindows]]) need no other shuffle, and a
    * cached copy keeps the partitioning.
    */
  def build(records: DataFrame, level: Int, windowSec: Long): DataFrame =
    binned(records, Nil, level, windowSec)

  /** Side of dataset E in [[tagSides]]' and [[buildSides]]' `side` column. */
  val SideE = 0
  /** Side of dataset I. */
  val SideI = 1

  /** Both location datasets in one relation: `(side, id, ts, lat, lon)`, with
    * `side` [[SideE]] for the rows of `recordsE` and [[SideI]] for those of
    * `recordsI`. An id present in both datasets stays two entities.
    */
  def tagSides(recordsE: DataFrame, recordsI: DataFrame): DataFrame = {
    def tagged(records: DataFrame, side: Int) =
      records.select(lit(side).as("side") +: RecordColumns.map(col): _*)
    tagged(recordsE, SideE).union(tagged(recordsI, SideI))
  }

  /** [[build]] of both datasets at once, over their [[tagSides]] rows:
    * `(side, id, win, cell, cnt)`, hash-partitioned by `win` by one shuffle
    * and sorted by `win` within each partition (a sort that can spill; no
    * exchange). The rows with `side = s` are exactly [[build]] of that dataset.
    */
  def buildSides(recordsE: DataFrame, recordsI: DataFrame, level: Int,
                 windowSec: Long): DataFrame =
    binned(tagSides(recordsE, recordsI), Seq("side"), level, windowSec).sortWithinPartitions("win")

  /** The binning of [[build]] and [[buildSides]], grouped by `keys` as well. */
  private def binned(records: DataFrame, keys: Seq[String], level: Int,
                     windowSec: Long): DataFrame = {
    require(windowSec > 0, "windowSec must be positive")
    records
      .select(keys.map(col) ++ Seq(
        col("id"),
        floor(col("ts") / windowSec).cast("long").as("win"),
        cellUdf(level)(col("lat"), col("lon")).as("cell"),
      ): _*)
      .repartition(col("win"))
      .groupBy((keys ++ Seq("id", "win", "cell")).map(col): _*)
      .agg(count(lit(1)).as("cnt"))
  }

  /** A row of [[buildSides]]: `(side, id, win, cell, cnt)`. */
  type SideBin = (Int, Long, Long, Long, Long)

  /** [[buildSides]]' rows as an RDD, in the histories' partitions. Catalyst
    * plans the binning when this is called, once; the per-partition passes
    * over the RDD are lambdas it would not look into anyway.
    */
  def sideBins(hist: DataFrame): RDD[SideBin] =
    hist.select("side", "id", "win", "cell", "cnt").as(sideBinEncoder).rdd

  /** The encoder of [[SideBin]], derived once rather than on every link. */
  private lazy val sideBinEncoder: Encoder[SideBin] = Encoders.tuple(Encoders.scalaInt,
    Encoders.scalaLong, Encoders.scalaLong, Encoders.scalaLong, Encoders.scalaLong)

  /** One partition of [[sideBins]] as its windows in ascending order, each
    * with E's rows and I's. [[buildSides]] partitions by window and sorts
    * each partition by window, so each window is whole and its rows are
    * consecutive: only one window's rows are held at a time. A partition
    * that is not sorted by window fails rather than split a window.
    */
  def windows(rows: Iterator[SideBin]): Iterator[(Long, Array[SideBin], Array[SideBin])] = {
    val in = rows.buffered
    var last = Option.empty[Long]
    Iterator.continually(in).takeWhile(_.hasNext).map { _ =>
      val win = in.head._3
      require(last.forall(_ < win), s"window $win after window ${last.get}: rows not sorted by window")
      last = Some(win)
      val (e, i) = Iterator.continually(in).takeWhile(r => r.hasNext && r.head._3 == win)
        .map(_.next()).toArray.partition(_._1 == SideE)
      (win, e, i)
    }
  }

  /** One side's rows of one window ([[windows]]), binned at `binLevel`, as
    * `(id, cell)` pairs at the scoring `level`: each row's own cell when
    * `binLevel` is `level`, else its [[Grid.ancestorAt]] `level`, once per
    * `(id, cell)`. `ancestorAt(cellOf(p, L), l) == cellOf(p, l)`, so these
    * are the window's bins of [[build]] at `level`. Stage 1 counts them per
    * entity and stage 3 scores them.
    */
  def cellsAt(rows: Array[SideBin], binLevel: Int, level: Int): Iterator[(Long, Long)] =
    if (binLevel == level) rows.iterator.map(r => (r._2, r._4))
    else rows.iterator.map(r => (r._2, Grid.ancestorAt(r._4, level))).distinct

  /** Inverse document frequency of each time-location bin (paper Eq. 3):
    * `idf(e) = ln(|U| / |{u : e in H_u}|)` over the given history set.
    * Counting rows gives `|{u : e in H_u}|` because histories hold one row
    * per (id, win, cell). Output: `(win, cell, idf)`.
    */
  def idf(hist: DataFrame, nEntities: Long): DataFrame = {
    require(nEntities > 0, "need a positive entity count")
    hist
      .groupBy("win", "cell")
      .agg(count(lit(1)).as("df"))
      .select(col("win"), col("cell"), log(lit(nEntities.toDouble) / col("df")).as("idf"))
  }

  /** BM25-style history length normalization (paper Eq. 2):
    * `L(u) = (1-b) + b * |H_u| / avg|H|`. Output: `(id, nbins, lnorm)`.
    * The reference for [[Slim.prepare]]'s norms, which evaluate the same
    * expression on the driver.
    */
  def lengthNorm(hist: DataFrame, b: Double): DataFrame = {
    require(b >= 0 && b <= 1, s"b=$b out of [0,1]")
    val sizes = historySizes(hist)
    val avgBins = sizes.agg(avg("nbins")).first().getDouble(0)
    sizes.select(col("id"), col("nbins"),
      (lit(1.0 - b) + lit(b) * col("nbins") / lit(avgBins)).as("lnorm"))
  }

  /** History length |H_u| per entity: `(id, nbins)`. */
  def historySizes(hist: DataFrame): DataFrame =
    hist.groupBy("id").agg(count(lit(1)).as("nbins"))

  /** Bins of one entity per window with the per-bin idf attached and collected
    * into a list — the unit [[Similarity.scoreEdges]], the reference scoring,
    * consumes. Output: `(id, win, bins: array<struct<cell:long, idf:double>>)`.
    */
  def binsByWindow(hist: DataFrame, idfDf: DataFrame): DataFrame =
    hist.join(idfDf, Seq("win", "cell"))
      .groupBy("id", "win").agg(collect_list(struct(col("cell"), col("idf"))).as("bins"))

  /** Convenience: number of distinct entities in a history set. */
  def nEntities(hist: DataFrame): Long = hist.select("id").distinct().count()
}
