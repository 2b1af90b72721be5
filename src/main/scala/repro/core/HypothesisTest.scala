package repro.core

import org.apache.commons.math3.distribution.ChiSquaredDistribution

/** Chi-squared uniformity testing used by RefineBin1D/RefineBin2D (§4.1).
  *
  * A bin with `u` unique values is divided into `s = ceil((2u)^(1/3))`
  * sub-bins (Terrell–Scott inequality, Eq 2) and the sub-bin counts are
  * tested against the uniform null hypothesis with significance `alpha`
  * (Eq 3). Critical values come from commons-math3, which ships on the
  * Spark classpath.
  */
object HypothesisTest {

  /** Terrell–Scott sub-bin count for a bin with `u` unique values (Eq 2). */
  def subBins(u: Long): Int = {
    if (u <= 0) 1
    else math.ceil(math.cbrt(2.0 * u)).toInt
  }

  /** Critical value chi2_alpha with Pr(X > chi2_alpha) = alpha at `dof`
    * degrees of freedom. Memoised — the builder calls this per tested bin.
    */
  def criticalValue(alpha: Double, dof: Int): Double = {
    require(dof >= 1, s"dof must be >= 1, got $dof")
    critCache.computeIfAbsent(
      (alpha, dof),
      { _ => new ChiSquaredDistribution(dof.toDouble).inverseCumulativeProbability(1.0 - alpha) }
    )
  }

  private val critCache =
    new java.util.concurrent.ConcurrentHashMap[(Double, Int), java.lang.Double]()

  /** Chi-squared statistic for observed sub-bin counts under the uniform
    * null (Eq 3). `counts.sum` must be positive.
    */
  def statistic(counts: Array[Long]): Double = {
    val s = counts.length
    val h = counts.sum.toDouble
    val expected = h / s
    var chi2 = 0.0
    var r = 0
    while (r < s) {
      val d = counts(r) - expected
      chi2 += d * d / expected
      r += 1
    }
    chi2
  }

  /** Weighted equal-width sub-bin counts of xs(from until until) over
    * [lo, hi]: row q adds w(q) to its sub-bin. Sub-bins are half-open;
    * values equal to `hi` (the closed upper edge of the last bin of a
    * histogram) land in the final sub-bin.
    */
  def subBinCounts(
      xs: Array[Double], w: Array[Long], from: Int, until: Int, lo: Double, hi: Double, s: Int
  ): Array[Long] = {
    val counts = new Array[Long](s)
    val width = hi - lo
    var q = from
    while (q < until) {
      val r0 = if (width <= 0) 0 else ((xs(q) - lo) / width * s).toInt
      counts(math.min(s - 1, math.max(0, r0))) += w(q)
      q += 1
    }
    counts
  }

  /** The paper's IsUniform as a ratio: the chi-squared statistic of the
    * weighted rows xs(from until until) over [lo, hi], which hold `u`
    * distinct values, divided by its critical value at `alpha`. Above 1
    * rejects uniformity; `<= 1.0` is exactly `statistic <= criticalValue`
    * since the critical value is positive. Bins that cannot be subdivided
    * (s < 2) and empty ranges score 0, i.e. uniform.
    */
  def nonUniformity(
      xs: Array[Double], w: Array[Long], from: Int, until: Int, lo: Double, hi: Double, u: Long, alpha: Double
  ): Double = {
    val s = subBins(u)
    if (s < 2 || until <= from) 0.0
    else statistic(subBinCounts(xs, w, from, until, lo, hi, s)) / criticalValue(alpha, s - 1)
  }
}
