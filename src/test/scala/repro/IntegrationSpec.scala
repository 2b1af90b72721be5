package repro

import org.apache.spark.sql.functions._
import repro.core._
import repro.data.Datasets
import repro.encoding.Codec
import repro.gd.{GreedyGD, Preprocess}
import repro.workload.{GroundTruth, QueryGen, Runner}

/** End-to-end: GD compression -> PairwiseHist on the bases -> codec
  * round-trip -> query execution vs DuckDB ground truth, on a real-ish
  * dataset stand-in (the paper's integrated framework, Fig 2).
  */
class IntegrationSpec extends SparkSpec {

  private lazy val df = Datasets.byName("temp")(spark, 0.002).cache()
  private lazy val n = df.count()
  private lazy val pre = Preprocess.run(df)
  private lazy val gt = GroundTruth.forDataFrame(df, "temp_it")

  /** A sample of `nS` rows of the GD frame, built locally. */
  private def buildSample(nS: Int, m: Long, seeds: Map[Int, Array[Double]] = Map.empty): PairwiseHist =
    Builder.build(Builder.collectSample(pre.df, n, nS, seed = 42), pre.specs, n, m, alpha = 0.001, seeds)

  test("framework end-to-end with GD base seeding") {
    val compressed = GreedyGD.run(pre.df, sampleRows = 5000)
    assert(compressed.ratio > 0.5) // compression may or may not win, but must be sane

    val seeds = GreedyGD.seeds(compressed, pre.specs)
    val ph = buildSample(nS = 8000, m = 80, seeds)

    // Codec round-trip, then query through the DECODED synopsis: storage is
    // part of the pipeline, not an afterthought.
    val decoded = Codec.decode(Codec.encode(ph))
    val engine = new Engine(decoded)

    val queries = Seq(
      Query(AggFn.Count, "temperature", Some(Cond("humidity", Op.Ge, 50.0))),
      Query(AggFn.Avg, "temperature", Some(Cond("humidity", Op.Le, 45.0))),
      Query(AggFn.Sum, "battery", Some(Cond("temperature", Op.Ge, 20.0))),
      Query(AggFn.Median, "humidity", Some(Cond("temperature", Op.Le, 22.0)))
    )
    for (q <- queries) {
      val truth = gt.answer(q).get
      val r = engine.run(q).get
      val err = Runner.relError(r.estimate, truth)
      assert(err < 0.20, s"$q err=$err est=${r.estimate} truth=$truth")
    }
  }

  test("sampled synopsis still answers within tolerance (rho < 1)") {
    val ph = buildSample(nS = 2000, m = 20)
    val engine = new Engine(ph)
    val q = Query(AggFn.Count, "temperature", Some(Cond("device", Op.Eq, "sensor001")))
    val truth = gt.answer(q).get
    val r = engine.run(q).get
    assert(Runner.relError(r.estimate, truth) < 0.30, s"est=${r.estimate} truth=$truth")
    assert(r.lo <= r.hi)
  }

  test("GROUP BY end-to-end vs ground truth") {
    val ph = buildSample(nS = 8000, m = 80)
    val engine = new Engine(ph)
    val q = Query(AggFn.Avg, "temperature", Some(Cond("humidity", Op.Ge, 45.0)), groupBy = Some("device"))
    val est = engine.runGroupBy(q).toMap
    val truth = gt.answerGroups(q)
    // Every true group with noticeable support should be estimated closely.
    val counts = df.filter(col("humidity") >= 45.0).groupBy("device").count()
      .collect().map(r => r.getString(0) -> r.getLong(1)).toMap
    for ((gv, t) <- truth if counts.getOrElse(gv, 0L) > 200) {
      val e = est.get(gv)
      assert(e.nonEmpty, s"missing group $gv")
      assert(Runner.relError(e.get.estimate, t) < 0.10, s"group $gv est=${e.get.estimate} truth=$t")
    }
  }

  test("synopsis is orders of magnitude smaller than the data") {
    val ph = buildSample(nS = 8000, m = 80)
    val synopsisBytes = Codec.sizeBytes(ph)
    val dataBytes = n * df.columns.length * 8L // fixed-width estimate
    assert(synopsisBytes * 20 < dataBytes, s"synopsis=$synopsisBytes data=$dataBytes")
  }
}
