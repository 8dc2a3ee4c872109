package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.{Grid, Histories, Proximity}

/** ST-Link as a composition of DataFrame joins, one step at a time: each
  * dataset binned on its own ([[Histories.build]]), the comparisons from a
  * record-level join on the window, the co-occurrences from a `(win, cell)`
  * join, and the alibis from per-`(id, win)` cell lists, two joins and a
  * UDF. The reference for [[STLink.run]], which must return the same
  * [[STLink.Result]] apart from `elapsedMs`.
  */
object STLinkReference {

  def run(spark: SparkSession, recordsE: DataFrame, recordsI: DataFrame,
          cfg: STLink.Config): STLink.Result = {
    val t0 = System.nanoTime()
    val binsE = Histories.build(recordsE, cfg.level, cfg.windowSec)
      .select(col("id").as("uid"), col("win"), col("cell"), col("cnt").as("ucnt")).cache()
    val binsI = Histories.build(recordsI, cfg.level, cfg.windowSec)
      .select(col("id").as("vid"), col("win"), col("cell"), col("cnt").as("vcnt")).cache()

    // Cost metric: all record pairs within each shared window are compared.
    val recE = recordsE.select(col("id"), floor(col("ts") / cfg.windowSec).as("win"))
      .groupBy("win").agg(count(lit(1)).as("ne"))
    val recI = recordsI.select(col("id"), floor(col("ts") / cfg.windowSec).as("win"))
      .groupBy("win").agg(count(lit(1)).as("ni"))
    val comparisons = recE.join(recI, "win")
      .agg(coalesce(sum(col("ne") * col("ni")), lit(0L))).first().getLong(0)

    // Co-occurrences: shared (window, cell) bins.
    val cooc = binsE.join(binsI, Seq("win", "cell"))
      .groupBy("uid", "vid")
      .agg(count(lit(1)).as("cooc"), countDistinct("cell").as("ldiv"))
      .cache()

    val kUsed = cfg.k.getOrElse(
      STLink.autoThreshold(cooc.select("cooc").collect().map(_.getLong(0)).toSeq))
    val lUsed = cfg.l.getOrElse(
      STLink.autoThreshold(cooc.select("ldiv").collect().map(_.getLong(0)).toSeq))

    val passing = cooc.filter(col("cooc") >= kUsed && col("ldiv") >= lUsed)

    // Alibi check, only for pairs past the (k, l) prefilter: count same-window
    // bin pairs farther apart than the runaway distance.
    val runaway = Proximity.runawayKm(cfg.windowSec, cfg.speedKmPerMin)
    val alibiUdf = udf { (u: Seq[Long], v: Seq[Long]) =>
      var n = 0L
      for (a <- u; b <- v) if (Grid.minDistanceKm(a, b) > runaway) n += 1
      n
    }
    val winE = binsE.groupBy("uid", "win").agg(collect_list("cell").as("ucells"))
    val winI = binsI.groupBy("vid", "win").agg(collect_list("cell").as("vcells"))
    val alibis = passing.select("uid", "vid")
      .join(winE, Seq("uid")).join(winI, Seq("vid", "win"))
      .select(col("uid"), col("vid"), alibiUdf(col("ucells"), col("vcells")).as("na"))
      .groupBy("uid", "vid").agg(sum("na").as("alibis"))

    val survivors = passing.join(alibis, Seq("uid", "vid"), "left")
      .filter(coalesce(col("alibis"), lit(0L)) <= cfg.alibiTolerance)
      .select(col("uid"), col("vid"), col("cooc").cast("double").as("score"))
      .collect()
      .map(r => ((r.getLong(0), r.getLong(1)), r.getDouble(2))).toMap

    // Ambiguity removal: an entity with multiple surviving partners links to none.
    val byU = survivors.keys.groupBy(_._1).view.mapValues(_.size).toMap
    val byV = survivors.keys.groupBy(_._2).view.mapValues(_.size).toMap
    val links = survivors.keys.toSeq
      .filter { case (u, v) => byU(u) == 1 && byV(v) == 1 }
      .sorted

    binsE.unpersist(); binsI.unpersist(); cooc.unpersist()
    STLink.Result(links, survivors, kUsed, lUsed, comparisons,
      (System.nanoTime() - t0) / 1000000L)
  }
}
