package repro.workload

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.AggFn
import repro.data.{Datasets, IdeBenchLite}

/** Reusable experiment drivers for the bench suites (one per table of the
  * paper's evaluation).
  */
object Experiments {

  /** One dataset evaluated end-to-end: systems built, queries answered. */
  final case class RunResult(
      name: String,
      rows: Long,
      built: Runner.Built,
      evals: Seq[Runner.Eval]
  )

  /** Evaluate all three systems on `df` with a generated workload. */
  def run(
      name: String,
      df: DataFrame,
      nS: Int,
      nQueries: Int,
      aggs: Seq[AggFn],
      maxPreds: Int,
      minSelectivity: Double,
      seed: Long
  ): RunResult = {
    df.cache()
    val rows = df.count()
    val gt = GroundTruth.forDataFrame(df, s"${name.replaceAll("[^A-Za-z0-9_]", "_")}_t")
    try {
      val prof = QueryGen.profile(df, seed = seed)
      val queries = QueryGen.generate(
        prof, gt, rows, nQueries, aggs, maxPreds, minSelectivity, seed, orShare = 0.2
      )
      val built = Runner.buildAll(df, nS, seed = seed, dbestWorkload = Some(queries))
      val evals = Runner.evaluate(built, queries, gt)
      RunResult(name, rows, built, evals)
    } finally {
      gt.close()
      df.unpersist()
      ()
    }
  }

  /** §6.1 initial experiments: single-predicate COUNT/SUM/AVG queries. */
  def initialExperiment(spark: SparkSession, dataset: String, sf: Double, nS: Int, nQueries: Int, seed: Long): RunResult = {
    val df = Datasets.byName(dataset)(spark, sf)
    run(
      s"${dataset}_init", df, nS, nQueries,
      Seq(AggFn.Count, AggFn.Sum, AggFn.Avg),
      maxPreds = 1, minSelectivity = 1e-3, seed = seed
    )
  }

  /** §6.3 scaled experiments: IDEBench-lite scale-up, all 7 aggregations,
    * 1-5 predicates.
    */
  def scaledExperiment(spark: SparkSession, dataset: String, srcSf: Double, targetRows: Long, nS: Int, nQueries: Int, seed: Long): RunResult = {
    val src = Datasets.byName(dataset)(spark, srcSf)
    val df = IdeBenchLite.scaleUp(src, targetRows, seed)
    run(s"${dataset}_scaled", df, nS, nQueries, AggFn.all, maxPreds = 5, minSelectivity = 1e-4, seed = seed)
  }

  /** Original (unscaled) dataset with the full aggregation workload. */
  def originalExperiment(spark: SparkSession, dataset: String, sf: Double, nS: Int, nQueries: Int, seed: Long): RunResult = {
    val df = Datasets.byName(dataset)(spark, sf)
    run(s"${dataset}_orig", df, nS, nQueries, AggFn.all, maxPreds = 5, minSelectivity = 1e-4, seed = seed)
  }

  /** Table 4 row: rows, columns and estimated raw size of a dataset at sf. */
  final case class DatasetStats(name: String, rows: Long, cols: Int, sizeMB: Double,
                                paperRows: Long, paperCols: Int, paperSizeMB: Double)

  def datasetStats(spark: SparkSession, name: String, sf: Double): DatasetStats = {
    val d = Datasets.byName(name)
    val df = d(spark, sf)
    val rows = df.count()
    val sample = repro.util.Sampling.collectRows(df, 2000, 7, rows)
    // Raw-size estimate: rendered CSV width, matching Table 4's on-disk MB.
    val bytesPerRow =
      if (sample.isEmpty) 0.0
      else sample.map(r => r.toSeq.map(v => if (v == null) 1 else v.toString.length + 1).sum).sum.toDouble / sample.length
    DatasetStats(name, rows, df.columns.length, rows * bytesPerRow / 1e6, d.paperRows, d.paperCols, d.paperSizeMB)
  }
}
