package repro

import org.apache.spark.sql.DataFrame
import repro.core.{Builder, DistributedBuilder, PairwiseHist}
import repro.gd.{ColumnSpec, GreedyGD, Preprocess}

/** The paper's framework (Fig 2, §3) from a raw frame to a synopsis: GD
  * pre-processing, GreedyGD, its bases as Algorithm 1's initial bin edges,
  * then Algorithm 1 on a sample of `Ns` rows. The frame, `Ns`, the seed and
  * the builder are the only inputs; every other choice is a constant here.
  */
object Pipeline {

  /** Significance level of the refinement tests, the paper's default. */
  private val Alpha = 0.001

  /** Most rows GreedyGD picks its bit split on. Bit selection is a
    * statistics problem: 5k rows suffice and keep the greedy search cheap on
    * wide schemas.
    */
  private val GdSampleRows = 5000

  /** Algorithm 1's M: 1% of `Ns`, at least 2. */
  private def m(nS: Int): Long = math.max(2L, nS / 100L)

  /** How the sample reaches Algorithm 1. */
  sealed trait Mode

  /** `Builder.collectSample` collects `Ns` rows to the driver for `Builder.build`. */
  case object Local extends Mode

  /** A Bernoulli sample of the GD frame, aggregated by `DistributedBuilder`. */
  case object Distributed extends Mode

  final case class Built(
      specs: Array[ColumnSpec],
      gdDf: DataFrame,
      compressed: GreedyGD.Compressed,
      sample: Option[Array[Array[Double]]], // Local only
      ph: PairwiseHist,
      buildMs: Double // the builder alone, without ingest or sampling
  )

  /** @throws IllegalArgumentException if `Preprocess.fit` rejects a column,
    *   or a GD value that reaches the builder lies beyond ±2^53
    */
  def build(raw: DataFrame, nS: Int, seed: Long, mode: Mode): Built = {
    val pre = Preprocess.run(raw)
    val n = pre.nRows
    val compressed = GreedyGD.run(pre.df, math.min(nS, GdSampleRows), seed, n)
    val seeds = GreedyGD.seeds(compressed, pre.specs)
    val (sample, (ph, buildMs)) = mode match {
      case Local =>
        val rows = Builder.collectSample(pre.df, n, nS, seed)
        (Some(rows), timed(Builder.build(rows, pre.specs, n, m(nS), Alpha, seeds)))
      case Distributed =>
        val sdf = pre.df.sample(withReplacement = false, math.min(1.0, nS.toDouble / n), seed)
        (None, timed(DistributedBuilder.build(sdf, pre.specs, n, m(nS), Alpha, seeds)))
    }
    Built(pre.specs, pre.df, compressed, sample, ph, buildMs)
  }

  private def timed(f: => PairwiseHist): (PairwiseHist, Double) = {
    val t0 = System.nanoTime()
    val ph = f
    (ph, (System.nanoTime() - t0) / 1e6)
  }
}
