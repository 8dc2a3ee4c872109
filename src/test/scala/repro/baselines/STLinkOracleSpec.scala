package repro.baselines

import repro.{Oracle, SparkSpec}
import repro.core.{Grid, Histories}
import repro.core.TestSupport.recordsDf
import repro.mobility.MobilityGen

/** DuckDB oracle checks of [[STLink.run]]'s co-occurrence counts, location
  * diversity and comparisons.
  */
class STLinkOracleSpec extends SparkSpec {

  private val Level = 12
  private val Win = 900L

  test("co-occurrence counts match DuckDB (oracle)") {
    import spark.implicits._
    val ground = MobilityGen.ground(spark,
      MobilityGen.cabConfig(nEntities = 24, recordsPerEntity = 60, days = 2))
    val pair = MobilityGen.samplePair(ground, n = 10, intersectRatio = 0.5,
      inclusionProb = 0.7)
    val tables = Seq("recordsE" -> pair.e, "recordsI" -> pair.i)
    // At k = l = 1 with every alibi tolerated, each co-located pair survives
    // with its co-occurrence count as its score.
    def run(l: Int) = STLink.run(spark, pair.e, pair.i, STLink.Config(level = Level,
      windowSec = Win, alibiTolerance = Int.MaxValue, k = Some(1), l = Some(l)))
    val all = run(1)

    val n = 1 << Level
    def duckBins(tbl: String, idCol: String) =
      s"""
         |SELECT DISTINCT CAST(id AS BIGINT) AS $idCol,
         |       CAST(floor(CAST(ts AS DOUBLE) / $Win) AS BIGINT) AS win,
         |       CAST(least(${n - 1}, floor((CAST(lon AS DOUBLE) + 180.0) / 360.0 * $n)) AS BIGINT) AS x,
         |       CAST(least(${n - 1}, floor((CAST(lat AS DOUBLE) + 90.0) / 180.0 * $n)) AS BIGINT) AS y
         |FROM $tbl
         |""".stripMargin
    val duckCooc =
      s"""
         |SELECT e.uid, i.vid, COUNT(*) AS cooc,
         |       COUNT(DISTINCT e.x * ${1L << 29} + e.y) AS ldiv
         |FROM (${duckBins("recordsE", "uid")}) e
         |JOIN (${duckBins("recordsI", "vid")}) i
         |  ON e.win = i.win AND e.x = i.x AND e.y = i.y
         |GROUP BY e.uid, i.vid
         |""".stripMargin
    assert(all.scores.nonEmpty)
    Oracle.assertEquivalent(
      all.scores.toSeq.map { case ((u, v), s) => (u, v, s.toLong) }.toDF("uid", "vid", "cooc"),
      s"SELECT uid, vid, cooc FROM ($duckCooc)", tables: _*)

    val diverse = run(2)
    assert(diverse.scores.nonEmpty && diverse.scores.size < all.scores.size)
    Oracle.assertEquivalent(diverse.scores.keys.toSeq.toDF("uid", "vid"),
      s"SELECT uid, vid FROM ($duckCooc) WHERE ldiv >= 2", tables: _*)

    def perWindow(tbl: String) =
      s"SELECT CAST(floor(CAST(ts AS DOUBLE) / $Win) AS BIGINT) AS win, COUNT(*) AS n FROM $tbl GROUP BY 1"
    assert(all.comparisons > 0)
    Oracle.assertEquivalent(Seq(all.comparisons).toDF("comparisons"),
      s"""SELECT CAST(SUM(e.n * i.n) AS BIGINT) AS comparisons
         |FROM (${perWindow("recordsE")}) e JOIN (${perWindow("recordsI")}) i ON e.win = i.win
         |""".stripMargin, tables: _*)
  }

  test("tumbling-window binning is consistent between ST-Link and SLIM histories") {
    val rows = recordsDf(spark, Seq(
      (1L, 0L, 37.77, -122.42), (1L, 899L, 37.77, -122.42), (1L, 900L, 37.77, -122.42)))
    val bins = Histories.build(rows, Level, Win).collect()
    assert(bins.map(_.getLong(1)).toSet == Set(0L, 1L))
    assert(bins.map(r => Grid.levelOf(r.getLong(2))).forall(_ == Level))
  }
}
