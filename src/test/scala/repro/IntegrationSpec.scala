package repro

import org.apache.spark.sql.functions._
import repro.core._
import repro.data.Datasets
import repro.encoding.Codec
import repro.workload.{GroundTruth, QueryGen, Runner}

/** End-to-end: GD compression -> PairwiseHist on the bases -> codec
  * round-trip -> query execution vs DuckDB ground truth, on a real-ish
  * dataset stand-in (the paper's integrated framework, Fig 2).
  */
class IntegrationSpec extends SparkSpec {

  private lazy val df = Datasets.byName("temp")(spark, 0.002).cache()
  private lazy val gt = GroundTruth.forDataFrame(df, "temp_it")
  private lazy val built = Pipeline.build(df, nS = 8000, seed = 42, Pipeline.Local)

  test("framework end-to-end with GD base seeding") {
    assert(built.compressed.ratio > 0.5) // compression may or may not win, but must be sane

    // Codec round-trip, then query through the DECODED synopsis: storage is
    // part of the pipeline, not an afterthought.
    val decoded = Codec.decode(Codec.encode(built.ph))
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
    val engine = new Engine(Pipeline.build(df, nS = 2000, seed = 42, Pipeline.Local).ph)
    val q = Query(AggFn.Count, "temperature", Some(Cond("device", Op.Eq, "sensor001")))
    val truth = gt.answer(q).get
    val r = engine.run(q).get
    assert(Runner.relError(r.estimate, truth) < 0.30, s"est=${r.estimate} truth=$truth")
    assert(r.lo <= r.hi)
  }

  test("GROUP BY end-to-end vs ground truth") {
    val engine = new Engine(built.ph)
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
    val synopsisBytes = Codec.measure(built.ph).total
    val dataBytes = built.ph.n * df.columns.length * 8L // fixed-width estimate
    assert(synopsisBytes * 20 < dataBytes, s"synopsis=$synopsisBytes data=$dataBytes")
  }
}
