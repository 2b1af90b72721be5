package repro.perfbench

import java.nio.file.{Files, Path, Paths}

import scala.collection.mutable

import org.apache.spark.sql.SparkSession
import repro.core.{AggFn, And, AqpResult, Builder, Cond, Or}
import repro.encoding.Codec
import repro.perfbench.Stats.{median, pct}

/** One benchmark run of one workload in a fresh JVM.
  *
  * Usage, from the repository root:
  * Main <workload> <seed> <seconds> <trace 0|1> <work dir>
  *
  * Order of a run: load the workload's committed data and queries; two
  * timed set-ups, the correctness checks running on the first; a discarded
  * warm-up query pass; the timed stream (the pool in the seed's order,
  * scalar and GROUP BY queries interleaved, cut off after `seconds`); the
  * rest of the pool, untimed, so that accuracy and failures cover the whole
  * pool. Only set-ups and the timed stream are timed.
  *
  * With trace 0 it prints the end-to-end metrics, with trace 1 the
  * per-layer ones (from a third set-up, traced). The last
  * stdout line is `PERFBENCH_RESULT <json>`; the exit code is 1 when a
  * correctness check failed.
  */
object Main {

  /** Spark runs in local mode with two task threads and two shuffle
    * partitions, and adaptive execution off: at these input sizes the cost
    * of a Spark job is its fixed per-job and per-task overhead, and fewer
    * threads leave the run less exposed to other load on the machine.
    */
  val Threads = 2

  def main(args: Array[String]): Unit = {
    val Array(wName, seedArg, secondsArg, traceArg, workArg) = args
    val w = Workload.byName(wName)
    val work = Paths.get(workArg).toAbsolutePath
    Files.createDirectories(work)
    val spark = SparkSession.builder
      .master(s"local[$Threads]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", Threads.toString)
      .config("spark.sql.adaptive.enabled", "false")
      .config("spark.local.dir", work.resolve("spark").toString)
      .config("spark.sql.warehouse.dir", work.resolve("warehouse").toString)
      .getOrCreate()
    val inputs = w.dir(Paths.get("").toAbsolutePath)
    val result =
      try new Run(spark, w, inputs, seedArg.toLong, secondsArg.toDouble, traceArg == "1", work).apply()
      finally spark.stop()
    println("PERFBENCH_RESULT " + result.json)
    if (!result.correct) sys.exit(1)
  }
}

final case class Result(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, Double)]) {
  def json: String = {
    import org.json4s._
    import org.json4s.jackson.JsonMethods._
    compact(JObject(
      "correct" -> JBool(correct),
      "attempted" -> JInt(attempted),
      "failed" -> JInt(failed),
      "metrics" -> JObject(metrics.map { case (k, v) => k -> JDouble(v) }.toList)
    ))
  }
}

final class Run(spark: SparkSession, w: Workload, inputs: Path, seed: Long, seconds: Double, trace: Boolean, work: Path) {

  private val runId = s"${w.name}-$seed-${System.currentTimeMillis()}"
  private val tracer = new Tracer(trace, runId, spark.sparkContext)
  private val off = new Tracer(false, runId, spark.sparkContext)
  private val checks = mutable.LinkedHashMap.empty[String, Boolean]
  private val layer = mutable.LinkedHashMap.empty[String, Double]

  private def log(msg: String): Unit =
    Console.err.println(f"[perfbench ${w.name} seed=$seed at ${Gc.uptimeMs / 1e3}%.1f s] $msg")

  private def ms[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e6)
  }

  def apply(): Result = {
    // ---- inputs: committed with the benchmark, loaded outside every timed region
    val ((raw, n), dataMs) = ms {
      val df = spark.read.parquet(inputs.resolve("data").toString)
      (df, df.count())
    }
    val (pool, truthMs) = ms(QueryPool.load(inputs))
    log(f"n=$n (${dataMs}%.0f ms), pool ${pool.scalar.length}+${pool.groupBy.length} with answers (${truthMs}%.0f ms)")
    val qs = RunQueries.draw(pool, seed)

    // ---- timed set-ups. The JVM is fresh, so the first set-up is cold and
    // the second warm; both count, on every commit alike.
    final case class Timed(seconds: Double, peakOldMb: Double, gcMs: Long)
    def timedSetup(tr: Tracer): (Setup.Built, Timed) = {
      System.gc()
      val gc0 = Gc.timeMs
      val up0 = Gc.uptimeMs
      val b = Setup.run(raw, n, w, tr)
      val up1 = Gc.uptimeMs
      val gcMs = Gc.timeMs - gc0
      checks("codec_round_trip") = checks.getOrElse("codec_round_trip", true) && Setup.codecRoundTrips(b)
      log(f"set-up ${b.seconds}%.2f s (gc $gcMs ms)")
      (b, Timed(b.seconds, Gc.peakOldMb(up0, up1), gcMs))
    }
    val (cold, t1) = timedSetup(off)
    val (_, checkMs) = ms {
      checks("gd_decompression") = Setup.gdDecompresses(cold)
      checks("builders_agree") = Setup.buildersAgree(n, cold)
    }
    cold.release()
    val (warm, t2) = timedSetup(off)
    val timed = Seq(t1, t2)
    log(f"checks $checks in $checkMs%.0f ms")
    // A traced run adds a traced set-up and an untraced one after it; the
    // overhead compares the two. The second set-up is still warming up (it
    // read 8.4 s against 7.0 s for the fourth), so it is no baseline.
    val built = if (!trace) warm else {
      warm.release()
      val (b, t3) = timedSetup(tracer)
      val (after, t4) = timedSetup(off)
      after.release()
      layer("trace.overhead_pct") = (t3.seconds - t4.seconds) / t4.seconds * 100
      layer("jvm.gc_ms_setup") = t3.gcMs.toDouble
      b
    }

    // ---- queries: discarded warm-up pass, then the timed stream; the
    // queries the time limit cut off are answered after it, untimed
    System.gc()
    val first = Stream.scalar(built.engine, pool.warmScalar.take(1)).head
    Stream.scalar(built.engine, pool.warmScalar.drop(1))
    Stream.groupBy(built.engine, pool.warmGroupBy)
    System.gc()
    val gcQ0 = Gc.timeMs
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    val ((scalar, groupBy), streamMs) = ms(tracer.span("stream", countSpark = false)(
      Stream.interleaved(built.engine, qs.stream.map(_._1), qs.groupBy, deadline)))
    val gcQueriesMs = Gc.timeMs - gcQ0
    val rest = Stream.scalar(built.engine, qs.stream.drop(scalar.length).map(_._1))
    val restGroupBy = Stream.groupBy(built.engine, qs.groupBy.drop(groupBy.length))
    val all = scalar ++ groupBy ++ rest ++ restGroupBy
    val failures = all.flatMap(_.failure)
    checks("answers_finite_and_ordered") = !failures.exists(f => f == "nonfinite" || f == "inverted")
    log(f"timed: ${scalar.length} scalar, ${groupBy.length} group-by in $streamMs%.0f ms; untimed: ${rest.length} + ${restGroupBy.length}; " +
      s"failures ${failures.groupBy(identity).view.mapValues(_.size).toMap}")

    // Accuracy over the whole pool against the committed exact answers,
    // with the paper tables' definitions; it does not depend on the seed.
    val answered = (scalar ++ rest).zip(qs.stream).collect {
      case (o, (q, t)) if o.failure.isEmpty => (q, o.results.head, t)
    }
    val errors = answered.map { case (_, r, t) => Stats.relError(r.estimate, t) * 100 }
    val (boundsOk, boundsWidth) = Stats.bounds(answered.map { case (_, r, t) => (r, t) })
    // A failed query counts as missing every latency limit.
    def latencies(os: Seq[Outcome]) = os.map(o => if (o.failure.isEmpty) o.us else Double.PositiveInfinity)

    val metrics =
      if (!trace) Seq(
        "setup_s" -> median(timed.map(_.seconds)),
        "query_p50_us" -> pct(latencies(scalar), 0.50),
        "query_p99_us" -> pct(latencies(scalar), 0.99),
        "groupby_p50_ms" -> pct(latencies(groupBy), 0.50) / 1e3,
        "groupby_p95_ms" -> pct(latencies(groupBy), 0.95) / 1e3,
        "query_ok_pct" -> 100.0 * (all.length - failures.length) / all.length,
        "median_error_pct" -> median(errors),
        "error_p90_pct" -> pct(errors, 0.90),
        "bounds_correct_pct" -> boundsOk,
        "bounds_width_pct" -> boundsWidth,
        "synopsis_bytes" -> built.bytes.length.toDouble,
        "gd_bytes_per_raw_byte" -> built.compressed.compressedBytes.toDouble / built.compressed.originalBytes
      )
      else {
        layerMetrics(built, n, scalar, groupBy, all, answered, first.us / 1e3)
        layer("jvm.gc_ms_queries") = gcQueriesMs.toDouble
        layer("jvm.peak_old_gen_mb") = median(timed.map(_.peakOldMb))
        layer("harness.load_data_ms") = dataMs
        layer("harness.groundtruth_ms") = truthMs
        tracer.writeJson(work.resolve("traces").resolve(s"$runId.json"), Map(
          "workload" -> w.name, "seed" -> seed, "checks" -> checks.toMap, "metrics" -> layer.toMap,
          "gc_ms_total" -> Gc.timeMs
        ))
        layer.toSeq
      }
    built.release()
    log("done")
    Result(checks.values.forall(identity), all.length, failures.length, metrics)
  }

  /** Per-layer figures from the traced set-up's spans and Spark counts. */
  private def layerMetrics(
      b: Setup.Built, n: Long, scalar: Seq[Outcome], groupBy: Seq[Outcome], all: Seq[Outcome],
      answered: Seq[(repro.core.Query, AqpResult, Double)], coldFirstMs: Double
  ): Unit = {
    val setup = tracer.named("setup").last
    def spans(name: String) = tracer.named(name, Some(setup))
    def spanMs(name: String) = spans(name).map(_.ms).sum
    def counts(names: String*) = names.flatMap(spans).map(_.spark).foldLeft(SparkCounts.zero)(_ + _)
    def passes(c: SparkCounts) = c.inputRecords.toDouble / n

    val pre = counts("preprocess.fit")
    layer("preprocess.fit_ms") = spanMs("preprocess.fit")
    layer("preprocess.spark_jobs") = pre.jobs.toDouble
    layer("preprocess.scan_passes") = passes(pre)

    val gd = counts("greedygd.run", "greedygd.bases")
    layer("greedygd.run_ms") = spanMs("greedygd.run")
    layer("greedygd.bases_ms") = spanMs("greedygd.bases")
    layer("greedygd.spark_jobs") = gd.jobs.toDouble
    layer("greedygd.scan_passes") = passes(gd)
    layer("greedygd.shuffle_bytes") = gd.shuffleBytes.toDouble
    layer("greedygd.n_bases") = b.compressed.nBases.toDouble

    val sample = counts("sample.collect")
    layer("sample.collect_ms") = spanMs("sample.collect")
    layer("sample.scan_passes") = passes(sample)
    layer("sample.driver_result_bytes") = sample.resultBytes.toDouble
    layer("ingest.scan_passes") = passes(pre) + passes(gd) + passes(sample)

    val cells = b.ph.hist2d.valuesIterator.map(h => h.metaI.k.toLong * h.metaJ.k).sum
    layer("builder.build_ms") = spanMs("builder.build")
    val (oneD, pairs) = b.sample.map(sliceBuilds(b, n, _)).getOrElse((Seq.empty[Double], Seq.empty[Double]))
    layer("builder.build1d_ms") = oneD.sum
    layer("builder.build2d_ms") = if (oneD.isEmpty) 0.0 else spanMs("builder.build") - oneD.sum
    layer("builder.pair_p50_ms") = if (pairs.isEmpty) 0.0 else median(pairs)
    layer("builder.pair_max_ms") = if (pairs.isEmpty) 0.0 else pairs.max
    layer("builder.bins_1d") = b.ph.hist1d.map(_.k.toDouble).sum
    layer("builder.cells_2d") = cells.toDouble
    layer("builder.pairs") = b.ph.hist2d.size.toDouble

    val dist = counts("dist.build")
    layer("dist.build_ms") = spanMs("dist.build")
    layer("dist.spark_jobs") = dist.jobs.toDouble
    layer("dist.shuffle_bytes") = dist.shuffleBytes.toDouble
    layer("dist.driver_result_bytes") = dist.resultBytes.toDouble
    layer("dist.result_bytes_per_cell") = if (cells == 0) 0.0 else dist.resultBytes.toDouble / cells

    val size = Codec.measure(b.ph)
    layer("codec.encode_ms") = spanMs("codec.encode")
    layer("codec.decode_ms") = spanMs("codec.decode")
    layer("codec.params_bytes") = size.params.toDouble
    layer("codec.hist1d_bytes") = size.hist1d.toDouble
    layer("codec.hist2d_bytes") = size.hist2d.toDouble
    layer("codec.counts_bytes") = size.counts.toDouble

    layer("engine.init_ms") = spanMs("engine.init")
    layer("engine.cold_first_query_ms") = coldFirstMs
    val ok = scalar.filter(_.failure.isEmpty)
    for (fn <- AggFn.all) {
      val name = fn.toString.toLowerCase
      layer(s"engine.${name}_p50_us") = median(ok.filter(_.q.agg == fn).map(_.us))
      layer(s"engine.${name}_error_pct") =
        median(answered.collect { case (q, r, t) if q.agg == fn => Stats.relError(r.estimate, t) * 100 })
    }
    def shape(o: Outcome) = o.q.where match {
      case Some(_: Cond) | None => "single"
      case Some(_: And)         => "and"
      case Some(_: Or)          => "or"
    }
    for (s <- Seq("single", "and", "or")) layer(s"engine.${s}_p50_us") = median(ok.filter(shape(_) == s).map(_.us))
    val groups = groupBy.map(_.results.length).sum
    layer("engine.groupby_groups_per_query") = groups.toDouble / math.max(1, groupBy.length)
    layer("engine.groupby_us_per_group") = groupBy.map(_.us).sum / math.max(1, groups)
    for (f <- Seq("exception", "none", "nonfinite", "inverted"))
      layer(s"engine.failed_$f") = all.count(_.failure.contains(f)).toDouble
  }

  /** Times `Builder.build` on 1-column and 2-column slices of the set-up's
    * sample: a column's 1-d time, and a pair's time as its 2-column build
    * minus both 1-column builds.
    */
  private def sliceBuilds(b: Setup.Built, n: Long, sample: Array[Array[Double]]): (Seq[Double], Seq[Double]) = {
    def build(cols: Int*): Double = {
      val seeds = cols.zipWithIndex.flatMap { case (c, k) => b.seeds.get(c).map(k -> _) }.toMap
      tracer.span("builder.slice", countSpark = false) {
        ms(Builder.build(cols.map(sample).toArray, cols.map(b.specs).toArray, n, b.m, Setup.Alpha, seeds))._2
      }
    }
    val d = sample.length
    val oneD = (0 until d).map(build(_))
    // Column order (j, i) makes the pair (1, 0) the same orientation as
    // pair (i, j) in the full build.
    val pairs = for (i <- 1 until d; j <- 0 until i) yield build(j, i) - oneD(i) - oneD(j)
    (oneD, pairs)
  }
}
