package perfbench

import scala.collection.mutable

import repro.mobility.MobilityGen

/** The benchmark's own tests: the sampler's §5.1 properties, an input digest
  * that does not depend on Spark's parallelism, and the span arithmetic.
  * Exits non-zero when any check fails.
  */
object SelfTest {

  private val failures = mutable.ArrayBuffer.empty[String]
  private var checks = 0

  private def expect(ok: Boolean, what: => String): Unit = {
    checks += 1
    if (!ok) { failures += what; System.err.println(s"FAIL: $what") }
  }

  def sampler(): Unit = for (w <- Workloads.all; seed <- Seq(0L, 7L)) {
    val in = Workloads.sample(w, seed)
    val gen = w.gen(seed)
    val n = w.perSide
    val common = math.round(w.rho * n)
    val tag = s"${w.name} seed $seed"
    val idsE = in.e.map(_.id).toSet
    val idsI = in.i.map(_.id - MobilityGen.IdOffset).toSet

    expect(idsE.forall(u => u >= 0 && u < n), s"$tag: side E draws entities [0, $n)")
    expect(idsI.forall(v => v >= n - common && v < 2 * n - common),
      s"$tag: side I draws entities [${n - common}, ${2 * n - common})")
    expect(in.e.groupBy(_.id).values.forall(_.size > Workloads.MinRecords) &&
      in.i.groupBy(_.id).values.forall(_.size > Workloads.MinRecords),
      s"$tag: every kept entity has more than ${Workloads.MinRecords} records")
    expect(in.truth == idsE.intersect(idsI).map(u => u -> (u + MobilityGen.IdOffset)).toMap,
      s"$tag: truth is exactly the entities on both sides")
    expect(in.truth.size <= common && in.truth.size >= common * 3 / 4,
      s"$tag: ${in.truth.size} true pairs, expected about $common")

    // Each side keeps exactly the generated records whose draw is below p,
    // and that share is close to p.
    val (seedE, seedI) = Workloads.sideSeeds(seed)
    for ((side, ids, shift, sideSeed) <- Seq((in.e, idsE, 0L, seedE), (in.i, idsI, MobilityGen.IdOffset, seedI))) {
      val generated = ids.toSeq.sorted.flatMap(id => MobilityGen.entityRecords(id, gen))
      val kept = generated.filter(r => Workloads.unit(r.id, r.ts, sideSeed) < w.p)
      expect(side.map(r => r.copy(id = r.id - shift)) == kept, s"$tag: kept records are the generated ones drawn below p")
      val share = side.size.toDouble / generated.size
      expect(math.abs(share - w.p) < 0.05, s"$tag: kept share $share is not close to p = ${w.p}")
    }

    // The sides are sampled independently: a shared entity keeps different
    // records on each side.
    val shared = in.truth.keys.head
    expect(in.e.filter(_.id == shared).map(_.ts) != in.i.filter(_.id == shared + MobilityGen.IdOffset).map(_.ts),
      s"$tag: both sides kept the same records of entity $shared")

    expect(Workloads.sample(w, seed) == in, s"$tag: sampling is deterministic")
    expect(Workloads.sample(w, seed + 1).e != in.e, s"$tag: another seed gives another input")
  }

  def digestAcrossCores(work: String): Unit = {
    val w = Workloads.byName("sm-lsh").get
    val in = Workloads.sample(w, 3)
    val expectedDigest = Workloads.digest(in.e, in.i)
    for (master <- Seq("local[1]", "local[4]")) {
      val spark = Main.session(master, work)
      val d = Workloads.digestOf(Workloads.toDf(spark, in.e).repartition(7), Workloads.toDf(spark, in.i))
      expect(d == expectedDigest, s"digest at $master is $d, generated rows give $expectedDigest")
      spark.stop()
    }
  }

  def spanArithmetic(): Unit = {
    import Spans._
    expect(covered(0, 100, Nil) == 0, "nothing covers nothing")
    expect(covered(0, 100, Seq((10L, 20L), (30L, 50L))) == 30, "disjoint children add up")
    expect(covered(0, 100, Seq((10L, 40L), (30L, 50L), (35L, 45L))) == 40, "overlaps count once")
    expect(covered(0, 100, Seq((-10L, 5L), (95L, 130L))) == 10, "children are clipped to the parent")
    expect(covered(0, 100, Seq((10L, 20L), (20L, 30L))) == 20, "touching intervals")
    expect(covered(0, 100, Seq((200L, 300L))) == 0, "a child outside the parent covers nothing")

    val root = Span(0, -1, "root", 0, 100, Map.empty)
    val spans = Seq(root, Span(1, 0, "a", 10, 40, Map.empty), Span(2, 0, "b", 30, 60, Map.empty),
      Span(3, 1, "a.x", 15, 35, Map.empty))
    expect(selfNs(root, spans) == 50, s"root self time ${selfNs(root, spans)} != 50")
    expect(selfNs(spans(1), spans) == 10, s"a self time ${selfNs(spans(1), spans)} != 10")
    expect(selfNs(spans(3), spans) == 20, "a leaf's self time is its duration")
  }

  def tracerAttribution(work: String): Unit = {
    val spark = Main.session("local[2]", work)
    val sc = spark.sparkContext
    val tr = new Tracer(sc)
    tr.span("outer") {
      sc.parallelize(1 to 100, 3).count()
      tr.span("inner") { sc.parallelize(1 to 100, 2).map(x => x % 5 -> x).reduceByKey(_ + _).count() }
    }
    tr.drain()
    val outer = tr.counters(tr.named("outer")); val inner = tr.counters(tr.named("inner"))
    expect(inner.jobs == 1 && inner.tasks == 4 && inner.stages == 2,
      s"inner span: ${inner.jobs} jobs, ${inner.stages} stages, ${inner.tasks} tasks; expected 1, 2, 4")
    expect(outer.jobs == 2 && outer.tasks == 7, s"outer span with its child: ${outer.jobs} jobs, ${outer.tasks} tasks")
    expect(inner.shuffleWriteBytes > 0 && inner.shuffleReadBytes > 0, "inner span's shuffle is counted")
    expect(tr.unattributedTasks == 0, s"${tr.unattributedTasks} tasks outside any span")
    tr.stop()
    spark.stop()
  }

  def main(args: Array[String]): Unit = {
    val work = args.sliding(2).collectFirst { case Array("--work", d) => d }
      .getOrElse(throw new IllegalArgumentException("missing --work"))
    sampler()
    spanArithmetic()
    digestAcrossCores(work)
    tracerAttribution(work)
    println(s"$checks checks, ${failures.size} failed")
    if (failures.nonEmpty) sys.exit(1)
  }
}
