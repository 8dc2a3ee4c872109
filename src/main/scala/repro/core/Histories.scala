package repro.core

import org.apache.spark.sql.DataFrame
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
    * `spark.sql.shuffle.partitions` partitions). Everything SLIM derives from
    * the histories per window is keyed by the window: the idf per
    * `(win, cell)` and the stage-3 cogroup on `win`
    * ([[Similarity.scoreWindows]]). So one shuffle here feeds both datasets'
    * windows to the scorer, and a cached copy keeps the partitioning (Spark
    * does not re-plan a cached plan's output partitioning by default).
    * Correctness never depends on it: without it Spark plans the exchanges
    * back.
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
    * `(side, id, win, cell, cnt)`, hash-partitioned by `win` by one shuffle.
    * The rows with `side = s` are exactly [[build]] of that dataset.
    */
  def buildSides(recordsE: DataFrame, recordsI: DataFrame, level: Int,
                 windowSec: Long): DataFrame =
    binned(tagSides(recordsE, recordsI), Seq("side"), level, windowSec)

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

  /** Histories binned at a finer level, viewed at the coarser `level`: each
    * bin's cell becomes its [[Grid.ancestorAt]] `level` and the counts of the
    * bins that merge are summed. Every other column stays a grouping key.
    * `ancestorAt(cellOf(p, L), l) == cellOf(p, l)`, so the result holds the
    * rows that binning the records at `level` gives. `win` is a key, so on
    * histories partitioned by window this plans no exchange.
    */
  def coarsen(hist: DataFrame, level: Int): DataFrame = {
    val ancestor = udf((cell: Long) => Grid.ancestorAt(cell, level))
    val keys = hist.columns.toSeq.filterNot(Set("cell", "cnt")).map(col)
    hist.groupBy(keys :+ ancestor(col("cell")).as("cell"): _*).agg(sum("cnt").as("cnt"))
  }

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

  /** History length |H_u| per entity, with the entity's first and last
    * window: `(id, nbins, minWin, maxWin)`.
    */
  def historySizes(hist: DataFrame): DataFrame =
    hist.groupBy("id").agg(count(lit(1)).as("nbins"), min("win").as("minWin"),
      max("win").as("maxWin"))

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
