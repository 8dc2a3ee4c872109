package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.exp.Experiments._

/** Shared entry point of the spark-submit jobs (one object per evaluation
  * table, DESIGN.md T1–T10): builds the session, parses the scale argument,
  * runs the table and stops the session, also when the run throws.
  *
  * Usage: `spark-submit --class repro.jobs.JobT1 repro.jar [scale]`
  * where `scale` (default 1.0) multiplies entity counts — scale 1.0 targets a
  * single beefy node; bench suites run the same harness smaller.
  */
abstract class Job(name: String) {

  /** Prints the table; `scaled(base)` is the entity count `base` at the
    * job's scale (at least 8).
    */
  def run(spark: SparkSession, scaled: Int => Int): Unit

  def main(args: Array[String]): Unit = {
    val scale = args.headOption.map(_.toDouble).getOrElse(1.0)
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions",
        sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()
    try run(spark, base => math.max(8, (base * scale).toInt))
    finally spark.stop()
  }
}

/** T1 (Fig 4): Cab accuracy/cost vs spatio-temporal level. */
object JobT1 extends Job("slim-t1") {
  def run(spark: SparkSession, scaled: Int => Int): Unit = {
    val sc = cabScenario(spark, scaled(130), 1000, 7, 0.5, 0.5)
    printTable(s"T1 Fig4 ${sc.name}",
      spatioTemporalSweep(spark, sc, Seq(8, 12, 16, 20), Seq(5, 15, 90, 360)))
  }
}

/** T2 (Fig 5): SM accuracy/cost vs spatio-temporal level. */
object JobT2 extends Job("slim-t2") {
  def run(spark: SparkSession, scaled: Int => Int): Unit = {
    val sc = smScenario(spark, scaled(1500), 24, 26, 0.5, 0.5)
    printTable(s"T2 Fig5 ${sc.name}",
      spatioTemporalSweep(spark, sc, Seq(8, 12, 16, 20), Seq(15, 90, 360)))
  }
}

/** T3 (Fig 6): GMM fit and stop threshold per spatial level (w = 90 min). */
object JobT3 extends Job("slim-t3") {
  def run(spark: SparkSession, scaled: Int => Int): Unit = {
    val sc = cabScenario(spark, scaled(130), 1000, 7, 0.5, 0.5)
    printTable(s"T3 Fig6 ${sc.name}", gmmThresholdStudy(spark, sc, Seq(4, 8, 12, 16)))
  }
}

/** T4 (Fig 7): sensitivity to inclusion probability and intersection ratio. */
object JobT4 extends Job("slim-t4") {
  def run(spark: SparkSession, scaled: Int => Int): Unit = {
    val cab = sensitivity(spark,
      (rho, p) => cabScenario(spark, scaled(130), 1000, 7, rho, p),
      Seq(0.3, 0.5, 0.7), Seq(0.1, 0.25, 0.5, 0.9))
    val sm = sensitivity(spark,
      (rho, p) => smScenario(spark, scaled(1500), 30, 26, rho, p),
      Seq(0.3, 0.5, 0.7), Seq(0.3, 0.5, 0.8))
    for ((name, rows) <- Seq("Cab" -> cab, "SM" -> sm))
      printTable(s"T4 Fig7 $name", rows)
  }
}

/** T5 (Fig 8): LSH accuracy/speed-up vs signature level and step size. */
object JobT5 extends Job("slim-t5") {
  def run(spark: SparkSession, scaled: Int => Int): Unit =
    for ((name, sc) <- Seq(
      "Cab" -> cabScenario(spark, scaled(130), 1000, 7, 0.5, 0.5),
      "SM" -> smScenario(spark, scaled(1500), 24, 26, 0.5, 0.5)))
      printTable(s"T5 Fig8 $name ${sc.name}",
        lshLevelSweep(spark, sc, Seq(10, 12, 14, 16), Seq(12, 24, 48)))
}

/** T6 (Fig 9): speed-up vs hash bucket count per LSH threshold (signature
  * level 16, step 48).
  */
object JobT6 extends Job("slim-t6") {
  def run(spark: SparkSession, scaled: Int => Int): Unit =
    for ((name, sc) <- Seq(
      "Cab" -> cabScenario(spark, scaled(130), 1000, 7, 0.5, 0.5),
      "SM" -> smScenario(spark, scaled(1500), 24, 26, 0.5, 0.5)))
      printTable(s"T6 Fig9 $name ${sc.name}",
        lshBucketSweep(spark, sc, Seq(1 << 8, 1 << 12, 1 << 15, 1 << 18),
          Seq(0.4, 0.6, 0.8), sigLevel = 16, stepWindows = 48))
}

/** T7 (Fig 10): ablation study. */
object JobT7 extends Job("slim-t7") {
  def run(spark: SparkSession, scaled: Int => Int): Unit = {
    val sc = cabScenario(spark, scaled(130), 1000, 7, 0.5, 0.5)
    val rows = ablation(spark, sc, Seq(8, 12, 16, 20, 24), Seq(5, 15, 90, 360, 720))
    for ((axis, table) <- ablationTables(rows))
      printTable(s"T7 Fig10 ${sc.name}: F1 by $axis", table)
  }
}

/** T8 (Fig 11a/b): SLIM vs SLIM-noLSH vs ST-Link vs GM. */
object JobT8 extends Job("slim-t8") {
  def run(spark: SparkSession, scaled: Int => Int): Unit =
    printTable("T8 Fig11ab", comparison(spark,
      recs => cabScenario(spark, scaled(130), recs / 0.6, 7, 0.5, 0.6),
      Seq(20.0, 80.0, 165.0, 330.0, 660.0)))
}

/** T9 (Fig 11c/d): SLIM vs ST-Link at scale. */
object JobT9 extends Job("slim-t9") {
  def run(spark: SparkSession, scaled: Int => Int): Unit =
    printTable("T9 Fig11cd", comparisonScale(spark,
      (recs, rho) => cabScenario(spark, scaled(130), recs / 0.6, 7, rho, 0.6),
      Seq(500.0, 1000.0, 2000.0), Seq(0.3, 0.7)))
}

/** T10 (§3.3): automatic spatial-level tuning. */
object JobT10 extends Job("slim-t10") {
  def run(spark: SparkSession, scaled: Int => Int): Unit =
    printTable("T10 auto-tuning", tuningStudy(
      Seq(
        "cab" -> cabScenario(spark, scaled(130), 1000, 7, 0.5, 0.5),
        "sm" -> smScenario(spark, scaled(1000), 24, 26, 0.5, 0.5)),
      windowSec = 900, levels = Seq(6, 8, 10, 12, 14, 16, 18)))
}
