package perfbench

import java.security.MessageDigest

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.{Lsh, Slim}
import repro.mobility.MobilityGen
import repro.mobility.MobilityGen.{GenConfig, GenRecord}

/** The benchmark's fixed workloads and the input each one links.
  *
  * Inputs are built on the driver, not with `MobilityGen.samplePair`: that
  * sampler draws `rand(seed)` per Spark partition, so its sample moves with
  * the core count and the input partitioning. Here every record's fate is a
  * hash of (id, ts, side seed), so the input depends on the seed alone.
  */
object Workloads {

  /** One workload: how to generate the ground trace, how to sample the two
    * sides from it (paper §5.1), and the SLIM configuration to link them.
    *
    * @param perSide entities drawn per side
    * @param rho     entity intersection ratio of the two sides
    * @param p       per-record inclusion probability on each side
    */
  final case class Workload(name: String, gen: Long => GenConfig, perSide: Int,
                            rho: Double, p: Double, cfg: Slim.SlimConfig)

  private def cab(seed: Long): GenConfig =
    MobilityGen.cabConfig(nEntities = 100, recordsPerEntity = 300, days = 2, seed = seed)

  private def sm(seed: Long): GenConfig =
    MobilityGen.smConfig(nEntities = 500, recordsPerEntity = 24, days = 8, seed = seed)

  /** Why each workload exists:
    *  - cab-bf15: brute force at 15-min windows; scheduling, shuffle and the
    *    cartesian candidate path dominate, the kernel does little;
    *  - cab-bf360: the same input with 360-min windows; few wide windows with
    *    many bins each, so the window-scoring kernel takes a real share;
    *  - sm-lsh: the only workload where LSH signatures, banding and the
    *    bucket join run; the kernel does almost nothing.
    *
    * BENCHMARK.json lists cab-bf15 and sm-lsh only, to keep a full round of
    * comparison runs short: one run costs about a minute. cab-bf360 runs
    * when named.
    */
  val all: Seq[Workload] = Seq(
    Workload("cab-bf15", cab, 50, 0.5, 0.5, Slim.SlimConfig()),
    Workload("cab-bf360", cab, 50, 0.5, 0.5, Slim.SlimConfig(windowSec = 360 * 60L)),
    Workload("sm-lsh", sm, 250, 0.5, 0.5, Slim.SlimConfig(lsh = Some(
      Lsh.LshConfig(t = 0.6, sigLevel = 12, stepWindows = 48, numBuckets = 4096)))),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** Two sampled location datasets and the planted truth u -> v. */
  final case class Input(e: IndexedSeq[GenRecord], i: IndexedSeq[GenRecord],
                         truth: Map[Long, Long]) {
    def records: Int = e.size + i.size
  }

  /** Entities with at most this many sampled records are dropped (§5.1). */
  val MinRecords = 5

  /** splitmix64 finalizer. */
  def mix(z0: Long): Long = {
    var z = z0
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Uniform [0, 1) draw that depends only on (id, ts, sideSeed). */
  def unit(id: Long, ts: Long, sideSeed: Long): Double =
    (mix(mix(mix(sideSeed) ^ id) ^ ts) >>> 11).toDouble / (1L << 53).toDouble

  /** The record-sampling seeds of sides E and I for a workload seed. */
  def sideSeeds(seed: Long): (Long, Long) = (mix(seed * 2 + 1), mix(seed * 2 + 2))

  /** Sample both sides per §5.1. Side E draws entities [0, n), side I draws
    * [n - common, 2n - common) with `common = round(rho * n)`, so exactly
    * `common` entities can appear on both sides. Each record is kept with
    * probability `p`, independently per side; entities left with at most
    * [[MinRecords]] records are dropped; side I's ids are shifted by
    * [[MobilityGen.IdOffset]].
    */
  def sample(w: Workload, seed: Long): Input = {
    val gen = w.gen(seed)
    val n = w.perSide
    val common = math.round(w.rho * n).toInt
    require(2L * n - common <= gen.nEntities, s"${w.name}: ground trace too small")

    def side(lo: Long, hi: Long, sideSeed: Long, shift: Long): IndexedSeq[GenRecord] =
      (lo until hi).flatMap { id =>
        val kept = MobilityGen.entityRecords(id, gen).filter(r => unit(r.id, r.ts, sideSeed) < w.p)
        if (kept.size > MinRecords) kept.map(r => r.copy(id = r.id + shift)) else Nil
      }

    val (seedE, seedI) = sideSeeds(seed)
    val e = side(0, n, seedE, 0L)
    val i = side(n - common, 2L * n - common, seedI, MobilityGen.IdOffset)
    val idsI = i.iterator.map(_.id).toSet
    val truth = e.iterator.map(_.id).toSet
      .filter(u => idsI.contains(u + MobilityGen.IdOffset))
      .map(u => u -> (u + MobilityGen.IdOffset)).toMap
    Input(e, i, truth)
  }

  def toDf(spark: SparkSession, rows: IndexedSeq[GenRecord]): DataFrame = {
    import spark.implicits._
    rows.toDF()
  }

  /** Order-independent digest of both sides' rows, hex, 16 characters. */
  def digest(e: Iterable[GenRecord], i: Iterable[GenRecord]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(32)
    def feed(side: Iterable[GenRecord], tag: Byte): Unit = {
      md.update(tag)
      side.toSeq.sortBy(r => (r.id, r.ts, r.lat, r.lon)).foreach { r =>
        buf.clear()
        buf.putLong(r.id).putLong(r.ts)
          .putLong(java.lang.Double.doubleToLongBits(r.lat))
          .putLong(java.lang.Double.doubleToLongBits(r.lon))
        md.update(buf.array())
      }
    }
    feed(e, 'E'.toByte); feed(i, 'I'.toByte)
    md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }

  /** Digest of what Spark holds for the two sides, collected from `df`s. */
  def digestOf(e: DataFrame, i: DataFrame): String = {
    def rows(df: DataFrame) = df.select("id", "ts", "lat", "lon").collect().toSeq
      .map(r => GenRecord(r.getLong(0), r.getLong(1), r.getDouble(2), r.getDouble(3)))
    digest(rows(e), rows(i))
  }
}
