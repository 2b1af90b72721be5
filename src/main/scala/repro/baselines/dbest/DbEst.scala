package repro.baselines.dbest

import repro.core.{AggFn, AqpResult, Cond, IntervalSet, Query}
import repro.gd.{ColumnSpec, CategoricalCol}

/** DBEst++-lite: one model per query template [21, 40].
  *
  * The real DBEst++ trains a mixture density network per (aggregation
  * column, predicate column) template; we substitute a 1-d Gaussian
  * mixture (EM) for the predicate column's density and a piecewise-linear
  * regression for E[agg | pred] — DBEst's original design, which DBEst++
  * compresses into MDNs. The modelling assumptions (smooth unimodal-ish
  * density, functional dependence of the aggregate on the predicate) are
  * what drive its error profile on spiky data, and those carry over.
  *
  * Template limitations reproduced from the paper's observations (§2):
  * at most two distinct columns per query, no OR, no queries on only
  * categorical columns, no MIN/MAX/MEDIAN, no bounds.
  */
object DbEst {

  private val GmmK = 8
  private val EmIters = 30
  private val RegKnots = 64

  final case class Gmm(weights: Array[Double], means: Array[Double], stds: Array[Double]) {
    def pdf(x: Double): Double = {
      var s = 0.0
      var k = 0
      while (k < weights.length) {
        val z = (x - means(k)) / stds(k)
        s += weights(k) * math.exp(-0.5 * z * z) / (stds(k) * math.sqrt(2 * math.Pi))
        k += 1
      }
      s
    }

    def cdf(x: Double): Double = {
      var s = 0.0
      var k = 0
      while (k < weights.length) {
        s += weights(k) * 0.5 * (1.0 + erf((x - means(k)) / (stds(k) * math.sqrt(2.0))))
        k += 1
      }
      s
    }

    def sizeBytes: Long = weights.length * 24L
  }

  /** Piecewise-linear E[y | x] on equal-count knots. */
  final case class Reg(xs: Array[Double], ys: Array[Double]) {
    def apply(x: Double): Double = {
      if (xs.isEmpty) return 0.0
      if (x <= xs.head) return ys.head
      if (x >= xs.last) return ys.last
      var lo = 0; var hi = xs.length - 1
      while (lo + 1 < hi) {
        val mid = (lo + hi) >>> 1
        if (xs(mid) <= x) lo = mid else hi = mid
      }
      val f = (x - xs(lo)) / math.max(1e-12, xs(hi) - xs(lo))
      ys(lo) + f * (ys(hi) - ys(lo))
    }

    def sizeBytes: Long = xs.length * 16L
  }

  /** Model for template (aggCol, predCol). */
  final case class Template(
      aggCol: Int,
      predCol: Int,
      gmm: Gmm,
      regMean: Reg,
      regSq: Reg,
      nonNullFrac: Double, // fraction of rows with both columns non-null
      xMin: Double,
      xMax: Double
  ) {
    def sizeBytes: Long = 40L + gmm.sizeBytes + regMean.sizeBytes + regSq.sizeBytes
  }

  final case class Client(templates: Map[(Int, Int), Template], n: Long, specs: Array[ColumnSpec]) {
    def sizeBytes: Long = templates.valuesIterator.map(_.sizeBytes).sum + 64L

    /** Extrapolated size of the full template set (all numeric pairs),
      * when only a workload subset was fitted.
      */
    def fullSupportSizeBytes: Long = {
      if (templates.isEmpty) return 64L
      val numeric = specs.count(!_.kind.isInstanceOf[CategoricalCol])
      val perTemplate = templates.valuesIterator.map(_.sizeBytes).sum / templates.size
      64L + perTemplate * numeric.toLong * (numeric - 1)
    }
  }

  // -------------------------------------------------------------- fitting ----

  /** Fit (numeric aggregation column, numeric predicate column) templates.
    * With `only = None`, every template is fitted — the paper's size
    * comparison includes all DBEst++ models needed to support the same
    * queries as PairwiseHist. Passing a template list restricts fitting to
    * a known workload (used by wide-schema benches to bound build time;
    * extrapolate full-support size via [[Client.fullSupportSizeBytes]]).
    */
  def fit(
      sample: Array[Array[Double]],
      specs: Array[ColumnSpec],
      n: Long,
      only: Option[Seq[(Int, Int)]] = None
  ): Client = {
    val d = sample.length
    val numeric = (0 until d).filterNot(c => specs(c).kind.isInstanceOf[CategoricalCol])
    val wanted: Seq[(Int, Int)] = only.getOrElse(
      for { agg <- numeric; pred <- numeric if agg != pred } yield (agg, pred)
    )
    val templates = wanted.distinct
      .filter { case (a, p) => a != p && numeric.contains(a) && numeric.contains(p) }
      .flatMap { case (a, p) => fitTemplate(sample, a, p).map((a, p) -> _) }
      .toMap
    Client(templates, n, specs)
  }

  def fitTemplate(sample: Array[Array[Double]], agg: Int, pred: Int): Option[Template] = {
    val rows = sample(agg).indices
      .filter(r => !sample(agg)(r).isNaN && !sample(pred)(r).isNaN)
      .map(r => (sample(pred)(r), sample(agg)(r)))
      .sortBy(_._1)
      .toArray
    if (rows.length < 32) return None
    val xs = rows.map(_._1)
    val gmm = fitGmm(xs)
    val knots = math.min(RegKnots, rows.length)
    val kx = new Array[Double](knots)
    val kyMean = new Array[Double](knots)
    val kySq = new Array[Double](knots)
    var q = 0
    while (q < knots) {
      val a = q * rows.length / knots
      val b = math.max(a + 1, (q + 1) * rows.length / knots)
      val slice = rows.slice(a, b)
      kx(q) = slice.map(_._1).sum / slice.length
      kyMean(q) = slice.map(_._2).sum / slice.length
      kySq(q) = slice.map(p => p._2 * p._2).sum / slice.length
      q += 1
    }
    val total = sample(agg).length
    Some(
      Template(
        agg, pred, gmm, Reg(kx, kyMean), Reg(kx, kySq),
        rows.length.toDouble / math.max(1, total), xs.head, xs.last
      )
    )
  }

  /** 1-d GMM via EM with deterministic quantile initialisation. */
  def fitGmm(xsSorted: Array[Double]): Gmm = {
    val n = xsSorted.length
    val k = math.min(GmmK, math.max(1, xsSorted.distinct.length))
    val means = Array.tabulate(k)(q => xsSorted(math.min(n - 1, (q * 2 + 1) * n / (2 * k))))
    val globalStd = {
      val m = xsSorted.sum / n
      math.max(1e-6, math.sqrt(xsSorted.map(v => (v - m) * (v - m)).sum / n))
    }
    val stds = Array.fill(k)(math.max(1e-6, globalStd / k))
    val weights = Array.fill(k)(1.0 / k)
    val resp = new Array[Double](k)
    var iter = 0
    while (iter < EmIters) {
      val sumW = new Array[Double](k)
      val sumWX = new Array[Double](k)
      val sumWX2 = new Array[Double](k)
      var i = 0
      while (i < n) {
        val x = xsSorted(i)
        var tot = 0.0
        var q = 0
        while (q < k) {
          val z = (x - means(q)) / stds(q)
          resp(q) = weights(q) * math.exp(-0.5 * z * z) / stds(q)
          tot += resp(q)
          q += 1
        }
        if (tot <= 0) { var q2 = 0; while (q2 < k) { resp(q2) = 1.0 / k; q2 += 1 }; tot = 1.0 }
        q = 0
        while (q < k) {
          val w = resp(q) / tot
          sumW(q) += w; sumWX(q) += w * x; sumWX2(q) += w * x * x
          q += 1
        }
        i += 1
      }
      var q = 0
      while (q < k) {
        if (sumW(q) > 1e-9) {
          weights(q) = sumW(q) / n
          means(q) = sumWX(q) / sumW(q)
          stds(q) = math.max(1e-6, math.sqrt(math.max(0, sumWX2(q) / sumW(q) - means(q) * means(q))))
        }
        q += 1
      }
      iter += 1
    }
    Gmm(weights, means, stds)
  }

  // ---------------------------------------------------------------- query ----

  /** True if DBEst++-lite can answer this query at all. */
  def supports(client: Client, q: Query): Boolean = templateFor(client, q).isDefined

  private def templateFor(client: Client, q: Query): Option[(Template, List[Cond])] = {
    if (q.groupBy.nonEmpty) return None
    if (!Set[AggFn](AggFn.Count, AggFn.Sum, AggFn.Avg, AggFn.Var).contains(q.agg)) return None
    val conds = q.where match {
      case None       => return None // needs a predicate template
      case Some(tree) => tree.flattenAnd.getOrElse(return None)
    }
    val predCols = conds.map(_.col).distinct
    if (predCols.length != 1 || predCols.head == q.aggCol) return None
    val aggIdx = client.specs.indexWhere(_.name == q.aggCol)
    val predIdx = client.specs.indexWhere(_.name == predCols.head)
    if (aggIdx < 0 || predIdx < 0) return None
    client.templates.get((aggIdx, predIdx)).map((_, conds))
  }

  def run(client: Client, q: Query): Option[AqpResult] = {
    val (tpl, conds) = templateFor(client, q).getOrElse(return None)
    val predIdx = client.specs.indexWhere(_.name == conds.head.col)
    val spec = client.specs(predIdx)
    val aggSpec = client.specs(tpl.aggCol)
    val set = conds.map(IntervalSet.ofCond(_, spec)).reduce(_ intersect _)
    if (set.isEmpty) return None

    // Integrate density (and density * regression) over the interval set.
    var p = 0.0
    var eMean = 0.0
    var eSq = 0.0
    set.ivs.foreach { case (a0, b0) =>
      val a = math.max(a0, tpl.xMin) - 0.5
      val b = math.min(b0, tpl.xMax) + 0.5
      if (a < b) {
        p += tpl.gmm.cdf(b) - tpl.gmm.cdf(a)
        val grid = 64
        val step = (b - a) / grid
        var g = 0
        while (g < grid) {
          val x = a + (g + 0.5) * step
          val mass = tpl.gmm.pdf(x) * step
          eMean += mass * tpl.regMean(x)
          eSq += mass * tpl.regSq(x)
          g += 1
        }
      }
    }
    if (p <= 1e-12) return None
    val effN = client.n * tpl.nonNullFrac
    val r = q.agg match {
      case AggFn.Count => AqpResult(effN * p, effN * p, effN * p)
      case AggFn.Sum =>
        val s = aggSpec.fromGdSum(effN * eMean, effN * p)
        AqpResult(s, s, s)
      case AggFn.Avg =>
        val a = aggSpec.fromGd(eMean / p)
        AqpResult(a, a, a)
      case AggFn.Var =>
        val m1 = eMean / p
        val v = aggSpec.fromGdVar(math.max(0.0, eSq / p - m1 * m1))
        AqpResult(v, v, v)
      case _ => return None
    }
    Some(r)
  }

  private def erf(x: Double): Double = {
    // Abramowitz-Stegun 7.1.26, |error| < 1.5e-7 — fine for density integrals.
    val t = 1.0 / (1.0 + 0.3275911 * math.abs(x))
    val y = 1.0 - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t + 0.254829592) * t * math.exp(-x * x)
    if (x >= 0) y else -y
  }
}
