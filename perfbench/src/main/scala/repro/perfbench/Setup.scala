package repro.perfbench

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{col, lit, pmod, xxhash64}
import repro.core.{Builder, DistributedBuilder, Engine, PairwiseHist}
import repro.encoding.Codec
import repro.gd.{ColumnSpec, GreedyGD, Preprocess}

/** Raw Parquet-backed DataFrame to a queryable synopsis, through the
  * system's public entry points only. One call is one set-up.
  */
object Setup {

  /** Significance of the refinement tests, the paper's default. */
  val Alpha = 0.001

  /** Rows GreedyGD picks its bit split on, as the framework does. */
  val GdSampleRows = 5000

  /** Seed of the synopsis sample, fixed like the data (see [[Workload]]). */
  val SampleSeed = 42L

  final case class Built(
      specs: Array[ColumnSpec],
      gdDf: DataFrame,
      compressed: GreedyGD.Compressed,
      seeds: Map[Int, Array[Double]],
      m: Long,
      sample: Option[Array[Array[Double]]], // local builder only
      sampleDf: Option[DataFrame], // distributed builder only
      ph: PairwiseHist,
      bytes: Array[Byte],
      engine: Engine,
      seconds: Double
  ) {
    /** Drops what GreedyGD left cached, so repeated set-ups start alike. */
    def release(): Unit = { compressed.bases.unpersist(blocking = true); () }
  }

  def run(raw: DataFrame, n: Long, w: Workload, tr: Tracer): Built = {
    val t0 = System.nanoTime()
    val built = tr.span("setup") {
      val specs = tr.span("preprocess.fit")(Preprocess.fit(raw))
      val gdDf = Preprocess.apply(raw, specs)
      val compressed = tr.span("greedygd.run")(GreedyGD.run(gdDf, math.min(w.nS, GdSampleRows)))
      val seeds = tr.span("greedygd.bases") {
        specs.indices.map(i => i -> GreedyGD.baseValues(compressed, specs(i).name)).toMap
      }
      val m = math.max(2L, w.nS / 100L)
      val (sample, sampleDf, ph) =
        if (w.distributed) {
          val sdf = gdDf.sample(withReplacement = false, math.min(1.0, w.nS.toDouble / n), SampleSeed)
          (None, Some(sdf), tr.span("dist.build")(DistributedBuilder.build(sdf, specs, n, m, Alpha, seeds)))
        } else {
          val s = tr.span("sample.collect")(Builder.collectSample(gdDf, n, w.nS, SampleSeed))
          (Some(s), None, tr.span("builder.build")(Builder.build(s, specs, n, m, Alpha, seeds)))
        }
      val bytes = tr.span("codec.encode")(Codec.encode(ph))
      val decoded = tr.span("codec.decode")(Codec.decode(bytes))
      val engine = tr.span("engine.init")(new Engine(decoded))
      Built(specs, gdDf, compressed, seeds, m, sample, sampleDf, ph, bytes, engine, 0.0)
    }
    built.copy(seconds = (System.nanoTime() - t0) / 1e9)
  }

  // ------------------------------------------------------ correctness ----

  /** Decoding then re-encoding gives the same bytes. */
  def codecRoundTrips(b: Built): Boolean =
    java.util.Arrays.equals(Codec.encode(Codec.decode(b.bytes)), b.bytes)

  /** GreedyGD decompression reproduces the pre-processed rows, compared as
    * multisets on the rows whose hash falls in one of `buckets` buckets.
    */
  def gdDecompresses(b: Built, buckets: Int = 32): Boolean = {
    val cols = b.gdDf.columns
    def pick(df: DataFrame): Seq[String] =
      df.filter(pmod(xxhash64(cols.map(col).toIndexedSeq: _*), lit(buckets)) === 0)
        .collect().map(_.mkString("|")).toSeq.sorted
    val expected = pick(b.gdDf)
    expected.nonEmpty && pick(b.compressed.decompress(cols)) == expected
  }

  /** The local builder, fed the distributed builder's sample, encodes to the
    * same bytes — the repository's builder-equivalence invariant.
    */
  def buildersAgree(n: Long, b: Built): Boolean = b.sampleDf.forall { sdf =>
    val rows = sdf.collect()
    val d = b.specs.length
    val sample = Array.tabulate(d)(c => rows.map(r => asDouble(r, c)))
    val local = Builder.build(sample, b.specs, n, b.m, Alpha, b.seeds)
    java.util.Arrays.equals(Codec.encode(local), b.bytes)
  }

  private def asDouble(r: Row, c: Int): Double = if (r.isNullAt(c)) Double.NaN else r.getLong(c).toDouble
}
