package repro.workload

import org.apache.spark.sql.DataFrame
import repro.Pipeline
import repro.baselines.dbest.DbEst
import repro.baselines.spn.Spn
import repro.core._
import repro.encoding.Codec

/** End-to-end harness: build PairwiseHist + both baselines on a dataset,
  * evaluate query sets against DuckDB ground truth, and collect the error /
  * latency / size / build-time metrics the paper's tables report.
  */
object Runner {

  /** All three systems built on the same GD-domain sample. */
  final case class Built(
      ph: PairwiseHist,
      engine: Engine,
      spn: Spn.Model,
      dbest: DbEst.Client,
      buildMsPh: Double,
      buildMsSpn: Double,
      buildMsDbest: Double,
      sizePh: Long,
      sizeSpn: Long,
      sizeDbest: Long
  )

  /** PairwiseHist from [[repro.Pipeline]]'s local builder, and both
    * baselines on the same GD-domain sample.
    */
  def buildAll(
      df: DataFrame,
      nS: Int,
      seed: Long = 42,
      dbestWorkload: Option[Seq[Query]] = None
  ): Built = {
    val p = Pipeline.build(df, nS, seed, Pipeline.Local)
    val (ph, sample) = (p.ph, p.sample.get)
    val dbestTemplates = dbestWorkload.map(dbestTemplatesFor(_, p.specs))

    val t0 = System.nanoTime()
    val spn = Spn.learn(sample, p.specs, ph.n)
    val t1 = System.nanoTime()
    val dbest = DbEst.fit(sample, p.specs, ph.n, dbestTemplates)
    val t2 = System.nanoTime()

    // When a workload restriction was applied, report the extrapolated
    // full-template size (the paper counts all models needed to match
    // PairwiseHist's query support).
    val dbestSize = if (dbestTemplates.isEmpty) dbest.sizeBytes else dbest.fullSupportSizeBytes

    Built(
      ph, new Engine(ph), spn, dbest,
      p.buildMs, (t1 - t0) / 1e6, (t2 - t1) / 1e6,
      Codec.sizeBytes(ph), spn.sizeBytes, dbestSize
    )
  }

  /** Template keys a query workload needs from DBEst++ (agg, pred) pairs. */
  def dbestTemplatesFor(queries: Seq[Query], specs: Array[repro.gd.ColumnSpec]): Seq[(Int, Int)] =
    queries.flatMap { q =>
      val predCols = q.where.map(_.columns.toSeq).getOrElse(Nil)
      val a = specs.indexWhere(_.name == q.aggCol)
      if (predCols.length == 1 && a >= 0) {
        val p = specs.indexWhere(_.name == predCols.head)
        if (p >= 0 && p != a) Some((a, p)) else None
      } else None
    }.distinct

  /** One query's evaluation: exact answer + per-system (result, latency ms). */
  final case class Eval(
      q: Query,
      truth: Double,
      results: Map[String, Option[AqpResult]],
      latencyMs: Map[String, Double]
  )

  def evaluate(built: Built, queries: Seq[Query], gt: GroundTruth): Seq[Eval] =
    queries.flatMap { q =>
      gt.answer(q).map { truth =>
        def timed(f: => Option[AqpResult]): (Option[AqpResult], Double) = {
          val t0 = System.nanoTime()
          val r = try f catch { case _: Exception => None }
          ((r, (System.nanoTime() - t0) / 1e6))
        }
        val (rPh, lPh) = timed(built.engine.run(q))
        val (rSpn, lSpn) = timed(Spn.run(built.spn, q))
        val (rDb, lDb) = timed(DbEst.run(built.dbest, q))
        Eval(
          q, truth,
          Map("PairwiseHist" -> rPh, "DeepDB" -> rSpn, "DBEst++" -> rDb),
          Map("PairwiseHist" -> lPh, "DeepDB" -> lSpn, "DBEst++" -> lDb)
        )
      }
    }

  /** Relative error with the conventions the paper's tables need: exact
    * hits are 0 even at truth 0; a wrong answer against a zero truth counts
    * as 100%.
    */
  def relError(est: Double, truth: Double): Double = {
    if (est == truth) 0.0
    else if (math.abs(truth) < 1e-12) 1.0
    else math.abs(est - truth) / math.abs(truth)
  }

  def median(xs: Seq[Double]): Double = {
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      val n = s.length
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }
  }

  /** Median relative error (%) for one system over evaluations where it
    * produced an answer, optionally filtered by aggregation function.
    */
  def medianErrorPct(evals: Seq[Eval], system: String, agg: Option[AggFn] = None): Double = {
    val errs = evals
      .filter(e => agg.forall(_ == e.q.agg))
      .flatMap(e => e.results(system).map(r => relError(r.estimate, e.truth)))
    median(errs) * 100
  }

  /** Share of queries the system answered at all (its supported set). */
  def supportRate(evals: Seq[Eval], system: String): Double =
    if (evals.isEmpty) Double.NaN
    else evals.count(_.results(system).nonEmpty).toDouble / evals.length

  /** Bounds correct-rate (%) and median width (% of truth) — Table 6. */
  def boundsStats(evals: Seq[Eval], system: String): (Double, Double) = {
    val answered = evals.flatMap(e => e.results(system).map(r => (r, e.truth)))
    if (answered.isEmpty) return (Double.NaN, Double.NaN)
    val correct = answered.count { case (r, t) => r.contains(t) }.toDouble / answered.length * 100
    val widths = answered.collect {
      case (r, t) if math.abs(t) > 1e-12 => r.width / math.abs(t) * 100
    }
    (correct, median(widths))
  }

  def medianLatencyMs(evals: Seq[Eval], system: String): Double =
    median(evals.filter(_.results(system).nonEmpty).map(_.latencyMs(system)))
}
