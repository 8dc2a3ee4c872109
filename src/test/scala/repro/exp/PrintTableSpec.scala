package repro.exp

import java.io.ByteArrayOutputStream
import java.nio.charset.StandardCharsets.UTF_8

import org.scalatest.funsuite.AnyFunSuite

import repro.exp.Experiments._

/** The text of every evaluation table (T1–T10), without Spark: one hand-made
  * row per table goes through [[Experiments.printTable]], and the printed
  * lines must equal lines of the bench suites' own output. Each row is the
  * widest of its bench table, so one row gives the bench table's column
  * widths; trailing spaces are part of the lines.
  */
class PrintTableSpec extends AnyFunSuite {

  private def printed(title: String, rows: Seq[TableRow]): Seq[String] = {
    val out = new ByteArrayOutputStream
    Console.withOut(out)(printTable(title, rows))
    new String(out.toByteArray, UTF_8).split("\n", -1).toSeq
  }

  /** Asserts the title line and then `lines`: the header, the rule under it
    * and the rows.
    */
  private def check(title: String, rows: Seq[TableRow])(lines: String*): Unit =
    assert(printed(title, rows) == Seq("", s"=== $title ===") ++ lines :+ "")

  test("T1/T2 spatio-temporal sweep: every cell is a Double") {
    check("T1 Fig4 Cab cab(n=50,recs=300.0,rho=0.5,p=0.5): accuracy/cost vs (level, window)",
      Seq(SpatioTemporalRow(16, 360, 0.333, 0.48, 0.393, 0L, 5523658L)))(
      "level   winMin   precision  recall  f1     alibiPairs  comparisons",
      "------  -------  ---------  ------  -----  ----------  -----------",
      "16.000  360.000  0.333      0.480   0.393  0.000       5523658.000")
    check("T2 Fig5 SM sm(n=250,recs=24.0,rho=0.5,p=0.5): accuracy/cost vs (level, window)",
      Seq(SpatioTemporalRow(20, 360, 0.662, 0.823, 0.734, 56718L, 279644L)))(
      "level   winMin   precision  recall  f1     alibiPairs  comparisons",
      "------  -------  ---------  ------  -----  ----------  -----------",
      "20.000  360.000  0.662      0.823   0.734  56718.000   279644.000 ")
  }

  test("T3 GMM fit") {
    check("T3 Fig6 cab(n=50,recs=300.0,rho=0.5,p=0.5): GMM components and stop threshold (w=90min)",
      Seq(GmmRow(16, 400.234, 437.297, 29.712, 19.34, 0.246, 398.843, 1.478, 0.409, 0.72)))(
      "level   mu1      mu2      sigma1  sigma2  c1     threshold  separation  precision  recall",
      "------  -------  -------  ------  ------  -----  ---------  ----------  ---------  ------",
      "16.000  400.234  437.297  29.712  19.340  0.246  398.843    1.478       0.409      0.720 ")
  }

  test("T4 sensitivity: elapsedMs prints as a Double") {
    check("T4 Fig7ab Cab(n=40, recs<=300): F1/runtime vs inclusion probability",
      Seq(SensitivityRow(0.3, 0.5, 149.513, 1.0, 1612L)))(
      "rho    p      avgRecords  f1     elapsedMs",
      "-----  -----  ----------  -----  ---------",
      "0.300  0.500  149.513     1.000  1612.000 ")
  }

  test("T5 LSH level sweep") {
    check(
      "T5 Fig8 cab(n=50,recs=400.0,rho=0.5,p=0.5): LSH relF1/speedup vs (signature level, step)",
      Seq(LshLevelRow(16, 24, 0.071, 554.433, 3L)))(
      "sigLevel  step    relF1  speedup  candidates",
      "--------  ------  -----  -------  ----------",
      "16.000    24.000  0.071  554.433  3.000     ")
  }

  test("T6 LSH bucket sweep: t comes before buckets") {
    check("T6 Fig9 cab(n=50,recs=400.0,rho=0.5,p=0.5): speedup vs buckets per threshold",
      Seq(LshBucketRow(buckets = 1 << 18, t = 0.8, relF1 = 0.611, speedup = 88.753)))(
      "t      buckets     relF1  speedup",
      "-----  ----------  -----  -------",
      "0.800  262144.000  0.611  88.753 ")
  }

  test("T7 ablation: one table per axis, one column per variant") {
    val f1s = Seq("SLIM" -> 1.0, "MNN" -> 1.0, "AllPairs" -> 0.952, "NoIDF" -> 1.0,
      "NoNorm" -> 0.816)
    val windowF1s = Seq(0.791, 0.791, 0.273, 0.679, 0.4)
    // rows arrive in sweep order, not in the tables' column order
    val rows = f1s.reverse.map { case (v, f1) => AblationRow("level", 12, v, f1) } ++
      f1s.map(_._1).zip(windowF1s).map { case (v, f1) => AblationRow("windowMin", 90, v, f1) }
    val tables = ablationTables(rows)
    assert(tables.map(_._1) == Seq("level", "windowMin"))
    check("T7 Fig10 cab(n=40,recs=300.0,rho=0.5,p=0.5): F1 by level per variant",
      tables(0)._2)(
      "level  SLIM   MNN    AllPairs  NoIDF  NoNorm",
      "-----  -----  -----  --------  -----  ------",
      "12     1.000  1.000  0.952     1.000  0.816 ")
    check("T7 Fig10 cab(n=40,recs=300.0,rho=0.5,p=0.5): F1 by windowMin per variant",
      tables(1)._2)(
      "windowMin  SLIM   MNN    AllPairs  NoIDF  NoNorm",
      "---------  -----  -----  --------  -----  ------",
      "90         0.791  0.791  0.273     0.679  0.400 ")
  }

  test("T8 comparison: counts print as integers next to the algorithm name") {
    check("T8 Fig11ab Cab(n=40, rho=0.5): algorithms vs record density",
      Seq(ComparisonRow("SLIM-noLSH", 320.0, 0.5, 1.0, 1353L, 571708L)))(
      "algo        avgRecords  hitPrec@40  f1     elapsedMs  comparisons",
      "----------  ----------  ----------  -----  ---------  -----------",
      "SLIM-noLSH  320.000     0.500       1.000  1353       571708     ")
  }

  test("T9 comparison at scale") {
    check("T9 Fig11cd Cab(n=40): SLIM vs ST-Link across density x intersection",
      Seq(ComparisonScaleRow("ST-Link", 0.3, 600.0, 0.727, 9050L, 3012524L)))(
      "algo     rho    avgRecords  f1     elapsedMs  comparisons",
      "-------  -----  ----------  -----  ---------  -----------",
      "ST-Link  0.300  600.000     0.727  9050       3012524    ")
  }

  test("T10 tuning: the curve is one level:ratio cell") {
    check("T10 auto spatial-level tuning (window 15 min)",
      Seq(TuningRow("cab", 14, Seq(6 -> 0.536, 8 -> 0.517, 10 -> 0.493, 12 -> 0.424,
        14 -> 0.35, 16 -> 0.317, 18 -> 0.311))))(
      "dataset  chosenLevel  curve                                                       ",
      "-------  -----------  ------------------------------------------------------------",
      "cab      14           6:0.536 8:0.517 10:0.493 12:0.424 14:0.350 16:0.317 18:0.311")
  }
}
