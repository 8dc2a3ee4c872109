package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.mobility.MobilityGen
import TestSupport.{candidatePairs, recordsDf}

/** DataFrame LSH stages: signatures, banding, candidate generation. */
class LshSparkSpec extends SparkSpec {

  private val WindowSec = 900L
  private val cfg = Lsh.LshConfig(t = 0.6, sigLevel = 12, stepWindows = 4, numBuckets = 4096)

  private lazy val records = MobilityGen
    .ground(spark, MobilityGen.cabConfig(nEntities = 25, recordsPerEntity = 80, days = 2))
    .cache()

  test("signatures match the HistoryTree's dominating-cell queries") {
    val sig = Lsh.signatures(records, cfg, WindowSec).collect()
      .map(r => ((r.getLong(0), r.getLong(1)), r.getLong(2))).toMap
    val local = records.collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2), r.getDouble(3)))
      .groupBy(_._1)
    val qSec = WindowSec * cfg.stepWindows
    for ((id, rows) <- local) {
      val obs = rows.toSeq.map(r =>
        (math.floorDiv(r._2, WindowSec), Grid.cellOf(r._3, r._4, cfg.sigLevel)))
      val tree = HistoryTree.build(obs)
      val qIdxs = rows.map(r => math.floorDiv(r._2, qSec)).distinct
      for (q <- qIdxs) {
        val lo = q * qSec / WindowSec
        val hi = (q + 1) * qSec / WindowSec - 1
        assert(sig.get((id, q)) == tree.dominatingCell(lo, hi),
          s"entity $id query window $q")
      }
    }
  }

  test("signatures match DuckDB argmax (oracle)") {
    val ux = udf((c: Long) => Grid.xOf(c)); val uy = udf((c: Long) => Grid.yOf(c))
    val ours = Lsh.signatures(records, cfg, WindowSec)
      .select(col("id"), col("qidx"), ux(col("cell")).as("x"), uy(col("cell")).as("y"))
    val lvl = cfg.sigLevel; val n = 1 << lvl; val qSec = WindowSec * cfg.stepWindows
    Oracle.assertEquivalent(
      ours,
      s"""
         |WITH bins AS (
         |  SELECT CAST(id AS BIGINT) AS id,
         |         CAST(floor(CAST(ts AS DOUBLE) / $qSec) AS BIGINT) AS qidx,
         |         CAST(least(${n - 1}, floor((CAST(lon AS DOUBLE) + 180.0) / 360.0 * $n)) AS BIGINT) AS x,
         |         CAST(least(${n - 1}, floor((CAST(lat AS DOUBLE) + 90.0) / 180.0 * $n)) AS BIGINT) AS y,
         |         COUNT(*) AS cnt
         |  FROM records GROUP BY ALL
         |), ranked AS (
         |  SELECT id, qidx, x, y,
         |         row_number() OVER (PARTITION BY id, qidx
         |                            ORDER BY cnt DESC, x * ${1L << 29} + y ASC) AS rk
         |  FROM bins
         |)
         |SELECT id, qidx, x, y FROM ranked WHERE rk = 1
         |""".stripMargin,
      "records" -> records)
  }

  test("an entity with no records in a query window has no signature row there") {
    val rows = recordsDf(spark, Seq(
      (1L, 0L, 10.0, 10.0),                      // query window 0
      (1L, WindowSec * cfg.stepWindows * 3, 10.0, 10.0))) // query window 3
    val qs = Lsh.signatures(rows, cfg, WindowSec).select("qidx").collect()
      .map(_.getLong(0)).sorted
    assert(qs.toSeq == Seq(0L, 3L))
  }

  test("property: a signature's qidx is floorDiv of its history window by the step") {
    // Slim.link aligns the signatures by stage 1's signature counts' qidx range
    // on this identity.
    val rnd = new scala.util.Random(20261017L)
    for ((windowSec, step) <- Seq((900L, 48), (900L, 4), (21600L, 3), (7L, 13), (1L, 1))) {
      val qSec = windowSec * step
      val ts = Seq.fill(200)(rnd.nextLong() % 4000000000L) ++
        Seq.fill(50)((rnd.nextInt(2000) - 1000) * qSec) ++ // exact multiples
        Seq(0L, -1L, 1L, qSec, -qSec, qSec - 1, -qSec + 1, qSec + 1, -qSec - 1)
      val rows = recordsDf(spark, ts.zipWithIndex.map { case (t, n) => (n.toLong, t, 10.0, 10.0) })
      val win = Histories.build(rows, cfg.sigLevel, windowSec).select("id", "win")
      val q = Lsh.signatures(rows, cfg.copy(stepWindows = step), windowSec).select("id", "qidx")
      val got = win.join(q, "id").collect().map(r => (r.getLong(0), r.getLong(1), r.getLong(2)))
      assert(got.length == ts.length)
      for ((id, w, qidx) <- got)
        assert(math.floorDiv(w, step.toLong) == qidx,
          s"ts ${ts(id.toInt)} windowSec $windowSec step $step: win $w qidx $qidx")
    }
  }

  test("bandHashes: identical signatures collide on every band") {
    val rows = recordsDf(spark,
      (0 to 7).flatMap(q => Seq(
        (1L, q * WindowSec * cfg.stepWindows, 10.0, 10.0),
        (2L, q * WindowSec * cfg.stepWindows, 10.0, 10.0))))
    val sig = Lsh.signatures(rows, cfg, WindowSec)
    val bands = Lsh.bandHashes(sig, qMin = 0, r = 2, numBuckets = 4096).collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getInt(2)))
    val b1 = bands.filter(_._1 == 1).map(b => (b._2, b._3)).toSet
    val b2 = bands.filter(_._1 == 2).map(b => (b._2, b._3)).toSet
    assert(b1 == b2 && b1.size == 4) // 8 query windows / r=2 -> 4 bands
  }

  test("bandHashes omits all-placeholder bands") {
    val rows = recordsDf(spark, Seq(
      (1L, 0L, 10.0, 10.0))) // only query window 0
    val sig = Lsh.signatures(rows, cfg, WindowSec)
    val bands = Lsh.bandHashes(sig, qMin = 0, r = 2, numBuckets = 4096).collect()
    assert(bands.length == 1 && bands.head.getLong(1) == 0L)
  }

  test("candidates: co-located entities collide, far entities do not") {
    // Entities 1 and 2 share all dominating cells; 3 lives on another continent.
    val rows = recordsDf(spark, (0 to 7).flatMap(q => Seq(
      (1L, q * WindowSec * cfg.stepWindows + 60, 10.0, 10.0),
      (2L, q * WindowSec * cfg.stepWindows + 120, 10.0, 10.0),
      (3L, q * WindowSec * cfg.stepWindows + 60, -30.0, 140.0))))
    val e = rows.filter(col("id") === 1L)
    val i = rows.filter(col("id") =!= 1L).withColumn("id", col("id") + 100)
    val (cand, sigLen, b, r) = candidatePairs(e, i, cfg, WindowSec)
    val pairs = cand.collect().map(x => (x.getLong(0), x.getLong(1))).toSet
    assert(sigLen == 8 && b >= 1 && r >= 1)
    assert(pairs.contains((1L, 102L)))
    assert(!pairs.contains((1L, 103L)))
  }

  test("candidate recall: most true pairs survive LSH filtering on generated data") {
    // Dense records + long query windows make dominating cells stable across
    // the two samples — the regime where the paper's LSH retains recall.
    val dense = MobilityGen.ground(spark,
      MobilityGen.cabConfig(nEntities = 25, recordsPerEntity = 300, days = 2))
    val pair = MobilityGen.samplePair(dense, n = 12, intersectRatio = 0.5,
      inclusionProb = 0.9)
    val denseCfg = cfg.copy(t = 0.5, stepWindows = 16)
    val (cand, _, _, _) = candidatePairs(pair.e, pair.i, denseCfg, WindowSec)
    val pairs = cand.collect().map(x => (x.getLong(0), x.getLong(1))).toSet
    val recalled = pair.truth.count { case (u, v) => pairs((u, v)) }
    assert(pair.truth.nonEmpty)
    assert(recalled.toDouble / pair.truth.size >= 0.75,
      s"LSH kept $recalled of ${pair.truth.size} true pairs")
  }

  test("fewer buckets can only add candidates (hash collisions)") {
    val pair = MobilityGen.samplePair(records, n = 12, intersectRatio = 0.5,
      inclusionProb = 0.8)
    val many = candidatePairs(pair.e, pair.i, cfg.copy(numBuckets = 1 << 18), WindowSec)
      ._1.count()
    val few = candidatePairs(pair.e, pair.i, cfg.copy(numBuckets = 8), WindowSec)
      ._1.count()
    assert(few >= many, s"few=$few many=$many")
  }

  test("lower similarity threshold t can only add candidates") {
    val pair = MobilityGen.samplePair(records, n = 12, intersectRatio = 0.5,
      inclusionProb = 0.8)
    val strict = candidatePairs(pair.e, pair.i, cfg.copy(t = 0.9), WindowSec)._1
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val loose = candidatePairs(pair.e, pair.i, cfg.copy(t = 0.2), WindowSec)._1
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(loose.size >= strict.size)
  }

  test("property: the dominating-cell rule equals the HistoryTree's query") {
    val rnd = new scala.util.Random(20261019L)
    for (_ <- 1 to 2000) {
      // Few cells and few records, so equal counts are common.
      val obs = Seq.fill(1 + rnd.nextInt(8))((rnd.nextInt(3).toLong, rnd.nextInt(4).toLong + 7))
      val counts = obs.groupMapReduce(_._2)(_ => 1L)(_ + _)
      val tree = HistoryTree.build(obs)
      assert(tree.dominatingCell(tree.winMin, tree.winMax).contains(Lsh.dominatingCell(counts)),
        s"observations $obs")
      // signatureOf with the window index as the query index: one query
      // window per leaf window, one count per record.
      for ((q, cell) <- Lsh.signatureOf(obs.map { case (q, cell) => (q, cell, 1L) }))
        assert(tree.dominatingCell(q, q).contains(cell), s"window $q of $obs")
    }
  }

  test("property: the one-pass LSH candidates equal the reference composition") {
    // Stage 1's signature counts, at a scoring level above, at and below the
    // signature level, against the signatures of the raw records.
    val rnd = new scala.util.Random(20261020L)
    val qSec = WindowSec * cfg.stepWindows
    // Five places, two of them in one sigLevel-12 cell, so dominating cells
    // repeat across entities and bands collide.
    val places = Seq((10.0, 10.0), (10.001, 10.001), (10.3, 10.2), (-33.9, 151.2), (40.7, -74.0))
    def entity(id: Long): Seq[(Long, Long, Double, Double)] = {
      val tie = rnd.nextInt(4) == 0
      Seq.fill(1 + rnd.nextInt(9)) {
        val q = rnd.nextInt(13) - 6L // negative query indices too; gaps are common
        val ts = q * qSec + (if (rnd.nextBoolean()) 0L else rnd.nextInt(qSec.toInt).toLong)
        val (lat, lon) = places(rnd.nextInt(places.size))
        (id, ts, lat, lon)
      } ++ (if (!tie) Nil else { // equal counts for two cells in one query window
        val q = rnd.nextInt(13) - 6L
        Seq((id, q * qSec, 10.0, 10.0), (id, q * qSec + 1, -33.9, 151.2))
      })
    }
    val shapes = for (trial <- 1 to 6) yield {
      // Ids 6-11 are on both sides, 0-5 only in E and 12-17 only in I.
      val e = recordsDf(spark, (0L to 11L).flatMap(entity))
      val i = recordsDf(spark, (6L to 17L).flatMap(entity))
      val numBuckets = Seq(3, 64, 4096)(trial % 3)
      val r = 2 + trial % 2
      val level = Seq(10, 12, 14)((trial - 1) / 2)
      val c = cfg.copy(numBuckets = numBuckets)
      val sigE = Lsh.signatures(e, c, WindowSec)
      val sigI = Lsh.signatures(i, c, WindowSec)
      val q = sigE.select("qidx").union(sigI.select("qidx")).agg(min("qidx"), max("qidx")).first()
      val (qMin, sigLen) = (q.getLong(0), q.getLong(1) - q.getLong(0) + 1)
      val want = Lsh.candidates(sigE, sigI, qMin, r, numBuckets).collect()
        .map(x => (x.getLong(0), x.getLong(1))).toSet
      val stage1 = Slim.prepare(e, i, Slim.SlimConfig(level = level, windowSec = WindowSec,
        lsh = Some(c)))
      val got = try Lsh.candidatePairs(stage1.sigCounts, qMin, r, numBuckets)
        finally stage1.unpersist()
      val shape = s"trial $trial: level $level, r $r, $numBuckets buckets, signature length $sigLen"
      assert(got.length == got.toSet.size, s"$shape: duplicate pairs")
      assert(got.toSet == want, shape)
      assert(want.nonEmpty, shape)
      (sigLen, r)
    }
    // Several bands each time, and at least once a short last band.
    assert(shapes.forall { case (len, r) => len > r } && shapes.exists { case (len, r) => len % r != 0 },
      s"(signature length, r): $shapes")
  }

  test("signatureOf sums the partial counts of one query window and cell") {
    // Cell 7 wins query window 0 only once its two partials are added up.
    val counts = Seq((0L, 7L, 2L), (0L, 5L, 3L), (0L, 7L, 2L), (1L, 5L, 1L))
    assert(Lsh.signatureOf(counts) == Seq((0L, 7L), (1L, 5L)))
  }
}
