package repro.baselines

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.{Grid, Histories}
import repro.core.TestSupport.recordsDf
import repro.mobility.MobilityGen

/** DuckDB oracle check of ST-Link's co-occurrence counting join. */
class STLinkOracleSpec extends SparkSpec {

  private val Level = 12
  private val Win = 900L

  test("co-occurrence counts match DuckDB (oracle)") {
    val ground = MobilityGen.ground(spark,
      MobilityGen.cabConfig(nEntities = 24, recordsPerEntity = 60, days = 2))
    val pair = MobilityGen.samplePair(ground, n = 10, intersectRatio = 0.5,
      inclusionProb = 0.7)

    val binsE = Histories.build(pair.e, Level, Win)
      .select(col("id").as("uid"), col("win"), col("cell"))
    val binsI = Histories.build(pair.i, Level, Win)
      .select(col("id").as("vid"), col("win"), col("cell"))
    val cooc = binsE.join(binsI, Seq("win", "cell"))
      .groupBy("uid", "vid")
      .agg(count(lit(1)).as("cooc"), countDistinct("cell").as("ldiv"))

    val n = 1 << Level
    def duckBins(tbl: String, idCol: String) =
      s"""
         |SELECT DISTINCT CAST(id AS BIGINT) AS $idCol,
         |       CAST(floor(CAST(ts AS DOUBLE) / $Win) AS BIGINT) AS win,
         |       CAST(least(${n - 1}, floor((CAST(lon AS DOUBLE) + 180.0) / 360.0 * $n)) AS BIGINT) AS x,
         |       CAST(least(${n - 1}, floor((CAST(lat AS DOUBLE) + 90.0) / 180.0 * $n)) AS BIGINT) AS y
         |FROM $tbl
         |""".stripMargin
    Oracle.assertEquivalent(
      cooc,
      s"""
         |SELECT e.uid, i.vid, COUNT(*) AS cooc,
         |       COUNT(DISTINCT e.x * ${1L << 29} + e.y) AS ldiv
         |FROM (${duckBins("recordsE", "uid")}) e
         |JOIN (${duckBins("recordsI", "vid")}) i
         |  ON e.win = i.win AND e.x = i.x AND e.y = i.y
         |GROUP BY e.uid, i.vid
         |""".stripMargin,
      "recordsE" -> pair.e, "recordsI" -> pair.i)
  }

  test("tumbling-window binning is consistent between ST-Link and SLIM histories") {
    val rows = recordsDf(spark, Seq(
      (1L, 0L, 37.77, -122.42), (1L, 899L, 37.77, -122.42), (1L, 900L, 37.77, -122.42)))
    val bins = Histories.build(rows, Level, Win).collect()
    assert(bins.map(_.getLong(1)).toSet == Set(0L, 1L))
    assert(bins.map(r => Grid.levelOf(r.getLong(2))).forall(_ == Level))
  }
}
