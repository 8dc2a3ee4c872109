package repro.core

import org.apache.spark.Partitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.classic.ClassicConversions.castToImpl
import org.apache.spark.sql.functions._
import org.apache.spark.sql.expressions.UserDefinedFunction
import org.apache.spark.storage.StorageLevel
import org.apache.spark.unsafe.hash.Murmur3_x86_32

import scala.collection.mutable

/** Mobility history construction (paper §2.3).
  *
  * A location dataset is a DataFrame with columns
  * `(id: Long, ts: Long /*epoch seconds*/, lat: Double, lon: Double)`.
  * Its mobility histories are the leaf-level time-location bins:
  * `(id, win, cell, cnt)` where `win = floor(ts / windowSec)` and `cell` is
  * the [[Grid]] cell id of `(lat, lon)` at the configured spatial level.
  *
  * [[Slim.link]] and ST-Link bin both datasets into one cached RDD
  * ([[binSides]]) and read it a window at a time ([[windows]]). The
  * DataFrame transformations ([[build]], [[idf]], [[lengthNorm]],
  * [[binsByWindow]]) are the reference they are checked against.
  */
object Histories {

  /** Expected input schema of a location dataset. */
  val RecordColumns: Seq[String] = Seq("id", "ts", "lat", "lon")

  /** UDF mapping (lat, lon) to a packed Grid cell id at `level`, for the
    * reference transformations ([[build]], [[Lsh.signatures]]).
    */
  def cellUdf(level: Int): UserDefinedFunction =
    udf((lat: Double, lon: Double) => Grid.cellOf(lat, lon, level))

  /** Leaf-level time-location bins: one row per (id, win, cell) with the
    * record count `cnt`. This is the DataFrame equivalent of the leaf level of
    * the paper's mobility history tree, and the reference for [[binSides]].
    *
    * The output is hash-partitioned by `win` (into
    * `spark.sql.shuffle.partitions` partitions), so all rows of a window are
    * in one partition and the idf per `(win, cell)` needs no other shuffle.
    */
  def build(records: DataFrame, level: Int, windowSec: Long): DataFrame =
    records
      .select(col("id"), window(windowSec), cellUdf(level)(col("lat"), col("lon")).as("cell"))
      .repartition(col("win"))
      .groupBy("id", "win", "cell")
      .agg(count(lit(1)).as("cnt"))

  /** A record's window `win = floor(ts / windowSec)`, as [[build]] and
    * [[binSides]] compute it.
    */
  private def window(windowSec: Long): Column = {
    require(windowSec > 0, "windowSec must be positive")
    floor(col("ts") / windowSec).cast("long").as("win")
  }

  /** Side of dataset E in [[binSides]]' rows. */
  val SideE = 0
  /** Side of dataset I. */
  val SideI = 1

  /** A row of [[binSides]]: `(side, id, win, cell, cnt)`. */
  type SideBin = (Int, Long, Long, Long, Long)

  /** [[SideBin]] rows as primitive columns: row `k` is `(side(k), id(k),
    * win(k), cell(k), cnt(k))`.
    */
  final case class Block(side: Array[Int], id: Array[Long], win: Array[Long], cell: Array[Long],
                         cnt: Array[Long]) {
    def rows: Iterator[SideBin] = id.indices.iterator.map(k => (side(k), id(k), win(k), cell(k), cnt(k)))
  }

  object Block {
    def of(rows: Array[SideBin]): Block =
      Block(rows.map(_._1), rows.map(_._2), rows.map(_._3), rows.map(_._4), rows.map(_._5))
  }

  /** [[build]] of both datasets at once, as `(side, id, win, cell, cnt)`
    * rows: the rows with `side = s` are exactly [[build]] of that dataset
    * ([[SideE]] `recordsE`, [[SideI]] `recordsI`), and an id present in both
    * datasets stays two entities.
    *
    * Each record's `id`, `win` and `(lat, lon)` are a Catalyst projection
    * with [[build]]'s expressions and casts, read as internal rows; a null in
    * any of the four columns fails the task with an error naming it. Each map
    * task bins its records with [[Grid.cellOf]], counts them per bin and ships
    * one [[Block]] per reduce partition. The reduce partition of a window is
    * Spark SQL's `HashPartitioning(win)` into `spark.sql.shuffle.partitions`,
    * where [[build]]'s `repartition` puts it. Each reduce task sums its
    * blocks' equal bins, sorts them by `(win, side, id, cell)` and keeps them
    * as one block: a partition holds whole windows in ascending order
    * ([[windows]]).
    *
    * The result is persisted (`MEMORY_AND_DISK`), so its first action runs
    * the shuffle and fills the cache in one job and later passes read the
    * cache. Cached as primitive columns, a partition is a handful of objects
    * for the block store to size, not one per bin. The caller releases it
    * with `unpersist()`.
    */
  def binSides(recordsE: DataFrame, recordsI: DataFrame, level: Int,
               windowSec: Long): RDD[Block] = {
    val n = recordsE.sparkSession.sessionState.conf.numShufflePartitions
    val columns = Seq(col("id").cast("long"), window(windowSec),
      col("lat").cast("double"), col("lon").cast("double"))
    def shipped(records: DataFrame, side: Int): RDD[(Int, Block)] =
      records.select(columns: _*).queryExecution.toRdd.mapPartitions { rows =>
        val counts = mutable.HashMap.empty[(Long, Long, Long), Long]
        for (row <- rows) {
          for (j <- RecordColumns.indices)
            require(!row.isNullAt(j), s"null ${RecordColumns(j)} in a location record")
          val bin = (row.getLong(0), row.getLong(1), Grid.cellOf(row.getDouble(2), row.getDouble(3), level))
          counts(bin) = counts.getOrElse(bin, 0L) + 1
        }
        counts.iterator.map { case ((id, win, cell), cnt) => (side, id, win, cell, cnt) }.toArray
          .groupBy(r => partitionOf(r._3, n)).iterator.map { case (p, rows) => p -> Block.of(rows) }
      }
    shipped(recordsE, SideE).union(shipped(recordsI, SideI))
      .partitionBy(new Partitioner {
        def numPartitions: Int = n
        def getPartition(key: Any): Int = key.asInstanceOf[Int]
      })
      .mapPartitions { blocks =>
        val sums = mutable.HashMap.empty[(Long, Int, Long, Long), Long]
        for ((_, b) <- blocks; (side, id, win, cell, cnt) <- b.rows)
          sums((win, side, id, cell)) = sums.getOrElse((win, side, id, cell), 0L) + cnt
        if (sums.isEmpty) Iterator.empty
        else Iterator.single(Block.of(sums.toArray.sortBy(_._1).map {
          case ((win, side, id, cell), cnt) => (side, id, win, cell, cnt)
        }))
      }
      .persist(StorageLevel.MEMORY_AND_DISK)
  }

  /** The partition of window `win` among `n` under Spark SQL's
    * `HashPartitioning(win)`: `pmod(murmur3(win, seed 42), n)`.
    */
  private def partitionOf(win: Long, n: Int): Int =
    Math.floorMod(Murmur3_x86_32.hashLong(win, 42), n)

  /** One partition of [[binSides]] as its windows in ascending order, each
    * with E's rows and I's. [[binSides]] partitions by window and sorts each
    * partition by window, so each window is whole and its rows are
    * consecutive: only one window's rows are held at a time. A partition
    * that is not sorted by window fails rather than split a window.
    */
  def windows(blocks: Iterator[Block]): Iterator[(Long, Array[SideBin], Array[SideBin])] = {
    val in = blocks.flatMap(_.rows).buffered
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
