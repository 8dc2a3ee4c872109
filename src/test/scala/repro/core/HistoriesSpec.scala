package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.mobility.MobilityGen
import TestSupport.recordsDf

/** DataFrame history construction, checked against the DuckDB oracle. */
class HistoriesSpec extends SparkSpec {

  private val Level = 12
  private val WindowSec = 900L
  private lazy val records = MobilityGen
    .ground(spark, MobilityGen.cabConfig(nEntities = 30, recordsPerEntity = 60, days = 2))
    .cache()

  /** Spark-side bins with (x, y) unpacked so DuckDB can recompute them
    * arithmetically (it cannot reproduce the bit-packed cell id).
    */
  private def binsXY = {
    val ux = udf((c: Long) => Grid.xOf(c)); val uy = udf((c: Long) => Grid.yOf(c))
    Histories.build(records, Level, WindowSec)
      .select(col("id"), col("win"), ux(col("cell")).as("x"), uy(col("cell")).as("y"),
        col("cnt"))
  }

  private val duckBins =
    s"""
       |SELECT CAST(id AS BIGINT) AS id,
       |       CAST(floor(CAST(ts AS DOUBLE) / $WindowSec) AS BIGINT) AS win,
       |       CAST(least(${(1 << Level) - 1},
       |            floor((CAST(lon AS DOUBLE) + 180.0) / 360.0 * ${1 << Level})) AS BIGINT) AS x,
       |       CAST(least(${(1 << Level) - 1},
       |            floor((CAST(lat AS DOUBLE) + 90.0) / 180.0 * ${1 << Level})) AS BIGINT) AS y
       |FROM records
       |""".stripMargin

  test("history bins match DuckDB groupBy (oracle)") {
    Oracle.assertEquivalent(
      binsXY,
      s"SELECT id, win, x, y, COUNT(*) AS cnt FROM ($duckBins) GROUP BY ALL",
      "records" -> records)
  }

  test("bin counts sum to the record count") {
    val total = Histories.build(records, Level, WindowSec).agg(sum("cnt")).first().getLong(0)
    assert(total == records.count())
  }

  test("idf matches DuckDB (oracle)") {
    val ux = udf((c: Long) => Grid.xOf(c)); val uy = udf((c: Long) => Grid.yOf(c))
    val hist = Histories.build(records, Level, WindowSec)
    val n = Histories.nEntities(hist)
    val ours = Histories.idf(hist, n)
      .select(col("win"), ux(col("cell")).as("x"), uy(col("cell")).as("y"), col("idf"))
    Oracle.assertEquivalent(
      ours,
      s"""
         |SELECT win, x, y, ln($n / CAST(COUNT(DISTINCT id) AS DOUBLE)) AS idf
         |FROM ($duckBins) GROUP BY ALL
         |""".stripMargin,
      "records" -> records)
  }

  test("idf: a bin shared by all entities has idf 0; unique bins have ln(n)") {
    val rows = recordsDf(spark, Seq(
      (1L, 0L, 10.0, 10.0), (2L, 0L, 10.0, 10.0), (3L, 0L, 10.0, 10.0),
      (1L, 1000L, 20.0, 20.0)))
    val hist = Histories.build(rows, Level, WindowSec)
    val idf = Histories.idf(hist, 3).collect().map(r => (r.getLong(0), r.getDouble(2))).toMap
    assert(math.abs(idf(0L) - 0.0) < 1e-12)
    assert(math.abs(idf(1L) - math.log(3.0)) < 1e-12)
  }

  test("lengthNorm matches DuckDB (oracle)") {
    val hist = Histories.build(records, Level, WindowSec)
    val ours = Histories.lengthNorm(hist, b = 0.5).select("id", "nbins", "lnorm")
    Oracle.assertEquivalent(
      ours,
      s"""
         |WITH sizes AS (
         |  SELECT id, COUNT(*) AS nbins FROM (SELECT DISTINCT id, win, x, y FROM ($duckBins))
         |  GROUP BY id
         |)
         |SELECT id, nbins,
         |       0.5 + 0.5 * nbins / (SELECT AVG(CAST(nbins AS DOUBLE)) FROM sizes) AS lnorm
         |FROM sizes
         |""".stripMargin,
      "records" -> records)
  }

  test("lengthNorm at b=0 is identically 1; at b=1 averages to 1") {
    val hist = Histories.build(records, Level, WindowSec)
    val l0 = Histories.lengthNorm(hist, 0.0).select("lnorm").collect().map(_.getDouble(0))
    assert(l0.forall(v => math.abs(v - 1.0) < 1e-12))
    val l1 = Histories.lengthNorm(hist, 1.0).select("lnorm").collect().map(_.getDouble(0))
    assert(math.abs(l1.sum / l1.length - 1.0) < 1e-9)
  }

  test("binsByWindow groups every bin exactly once with its idf") {
    val hist = Histories.build(records, Level, WindowSec).cache()
    val n = Histories.nEntities(hist)
    val bw = Histories.binsByWindow(hist, Histories.idf(hist, n))
    val exploded = bw.select(col("id"), col("win"), explode(col("bins")).as("b"))
    assert(exploded.count() == hist.count())
    // idf values attached are the dataset-level idf of each bin
    val joined = exploded
      .select(col("id"), col("win"), col("b.cell").as("cell"), col("b.idf").as("gotIdf"))
      .join(Histories.idf(hist, n), Seq("win", "cell"))
      .filter(abs(col("gotIdf") - col("idf")) > 1e-9)
    assert(joined.count() == 0)
  }

  test("Slim.prepare's stage 1 equals the reference idf, bins and norms") {
    // Two datasets sharing ids 10-19 with different records: the sides must
    // stay apart although both are binned in one relation.
    val recordsE = records.filter(col("id") < 20)
    val recordsI = records.filter(col("id") >= 10).withColumn("ts", col("ts") + 600)
    // With LSH at a finer signature level, stage 1 bins at that level and
    // views the histories at `Level`: the same rows.
    val base = Slim.SlimConfig(level = Level, windowSec = WindowSec)
    for ((label, cfg) <- Seq(("", base),
           (" (finer signature level)", base.copy(lsh = Some(Lsh.LshConfig(sigLevel = Level + 2)))))) {
      val stage1 = Slim.prepare(recordsE, recordsI, cfg)
      try {
        for ((name, side, input) <- Seq((s"E$label", stage1.e, recordsE),
               (s"I$label", stage1.i, recordsI))) {
          val hist = Histories.build(input, Level, WindowSec).cache()
          try {
            def bins(df: DataFrame) = df.select("id", "win", "cell", "cnt").collect()
              .map(r => (r.getLong(0), r.getLong(1), r.getLong(2), r.getLong(3))).toSet
            assert(bins(side.histories) == bins(hist), s"$name: histories")

            // Stage 3 counts each window's idf from the prepared histories; it
            // must equal Spark's Eq. 3 over the whole history set bit for bit.
            val got = side.histories.select("win", "id", "cell").collect()
              .groupBy(_.getLong(0)).toSeq.flatMap { case (win, rows) =>
                val ws = Similarity.windowSide(rows.iterator.map(r => (r.getLong(1), r.getLong(2))),
                  side.nEntities)
                ws.cells.indices.map(j => (win, ws.cells(j)) -> ws.idf(j))
              }
            val want = Histories.idf(hist, Histories.nEntities(hist)).collect()
              .map(r => (r.getLong(0), r.getLong(1)) -> r.getDouble(2)).toMap
            assert(got.map(_._1).toSet == want.keySet, s"$name: idf keys")
            for ((k, v) <- got) assert(v == want(k), s"$name: idf of (win, cell) $k: $v vs ${want(k)}")

            // The driver-side norms evaluate Eq. 2 as Spark does, bit for bit.
            val norms = Histories.lengthNorm(hist, cfg.bParam).select("id", "lnorm").collect()
              .map(r => r.getLong(0) -> r.getDouble(1)).toMap
            assert(side.norms.keySet == norms.keySet, s"$name: norm ids")
            for ((id, l) <- norms) assert(
              java.lang.Double.doubleToRawLongBits(side.norms(id)) ==
                java.lang.Double.doubleToRawLongBits(l), s"$name: norm of $id: ${side.norms(id)} vs $l")

            val st = Histories.historySizes(hist)
              .agg(count(lit(1)), avg("nbins"), min("minWin"), max("maxWin")).first()
            assert(side.nEntities == st.getLong(0), name)
            assert(side.meanLength == st.getDouble(1), name)
            assert(side.minWin == st.getLong(2) && side.maxWin == st.getLong(3), name)
          } finally hist.unpersist()
        }
      } finally stage1.unpersist()
    }
  }

  test("windows respect the configured width") {
    val rows = recordsDf(spark, Seq(
      (1L, 0L, 0.0, 0.0), (1L, 899L, 0.0, 0.0), (1L, 900L, 0.0, 0.0)))
    val wins = Histories.build(rows, Level, 900L).select("win").distinct().collect()
      .map(_.getLong(0)).sorted
    assert(wins.toSeq == Seq(0L, 1L))
  }
}
