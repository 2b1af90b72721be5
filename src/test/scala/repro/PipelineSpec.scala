package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.core._
import repro.data.Datasets
import repro.encoding.Codec
import repro.gd.{GreedyGD, Preprocess}

class PipelineSpec extends SparkSpec {

  // Nulls, strings and doubles; on this frame the GreedyGD seed changes the
  // bases, so a wrong GreedyGD seed shows in the synopsis.
  private lazy val raw = Datasets.byName("power")(spark, 0.01).cache()

  /** The chain as the call sites wrote it out by hand before [[Pipeline]]
    * existed, kept as the reference: the local and the distributed synopsis.
    */
  private def reference(nS: Int, seed: Long): (PairwiseHist, PairwiseHist) = {
    val n = raw.count()
    val pre = Preprocess.run(raw)
    val compressed = GreedyGD.run(pre.df, math.min(nS, 5000), seed)
    val seeds = GreedyGD.seeds(compressed, pre.specs)
    assert(seeds.values.exists(_.nonEmpty), "the reference must exercise GD seeding")
    val m = math.max(2L, nS / 100L)
    val local = Builder.build(Builder.collectSample(pre.df, n, nS, seed), pre.specs, n, m, 0.001, seeds)
    val sampleDf = pre.df.sample(withReplacement = false, math.min(1.0, nS.toDouble / n), seed)
    val dist = DistributedBuilder.build(sampleDf, pre.specs, n, m, 0.001, seeds)
    (local, dist)
  }

  // Compared in one JVM, not against stored hashes: Spark's Bernoulli
  // sample depends on the partition count.
  for (nS <- Seq(2000, 5000); seed <- Seq(3L, 42L))
    test(s"Pipeline.build equals the hand-written chain for both builders (Ns=$nS, seed=$seed)") {
      val (local, dist) = reference(nS, seed)
      for ((mode, want) <- Seq(Pipeline.Local -> local, Pipeline.Distributed -> dist)) {
        val got = Pipeline.build(raw, nS, seed, mode).ph
        SynopsisAssertions.assertSameSynopsis(got, want)
        assert(java.util.Arrays.equals(Codec.encode(got), Codec.encode(want)), s"$mode bytes")
      }
    }

  test("columns named with a dot or a backtick go through the whole pipeline") {
    val frame = raw.select(col("voltage").as("a.b"), col("weekday").as("x`y"))
    def rows(df: DataFrame): Seq[String] = df.collect().map(_.mkString("|")).toSeq.sorted
    for (mode <- Seq(Pipeline.Local, Pipeline.Distributed)) {
      val b = Pipeline.build(frame, 2000, 3L, mode)
      assert(b.specs.map(_.name).toSeq == Seq("a.b", "x`y"), s"$mode")
      assert(rows(b.compressed.decompress(b.gdDf.columns)) == rows(b.gdDf), s"$mode decompress")
      val q = Query(AggFn.Count, "a.b", Some(Cond("x`y", Op.Eq, "day1")))
      assert(new Engine(b.ph).run(q).exists(_.estimate > 0), s"$mode query")
    }
  }

  test("a GD value beyond 2^53 is rejected with its column's name in both modes, not rounded") {
    val frame = spark.range(2).select((col("id") * ((1L << 53) + 1)).as("big"))
    for (mode <- Seq(Pipeline.Local, Pipeline.Distributed)) {
      val e = intercept[IllegalArgumentException](Pipeline.build(frame, 2000, 3L, mode))
      assert(e.getMessage.contains("column big "), s"$mode: ${e.getMessage}")
    }
  }
}
