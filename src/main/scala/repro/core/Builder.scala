package repro.core

import org.apache.spark.sql.DataFrame
import repro.gd.ColumnSpec

import scala.collection.mutable.ArrayBuffer

/** Local PairwiseHist construction (Algorithm 1) over a collected sample.
  *
  * Values are in the GD integer domain as Doubles; missing values are NaN.
  * Splits are equal-width (the paper tested both and chose equal-width).
  * The distributed builder ([[DistributedBuilder]]) runs the same algorithm
  * over the sample's distinct rows and their multiplicities, collected by
  * one DataFrame aggregation, and must produce identical synopses on the
  * same sample — see DistributedBuilderSpec.
  */
object Builder {

  /** Build from a column-major sample. `initialEdges` optionally seeds 1-d
    * bin edges with GreedyGD base values (§3); they are downsampled to at
    * most ceil(Ns/M) values (Algorithm 1 line 4).
    *
    * @param sample   sample(c) = values of column c (NaN for null)
    * @param n        rows in the full dataset (for the sampling ratio rho)
    * @param m        minimum bin count to consider splitting
    * @param alpha    hypothesis-test significance
    */
  def build(
      sample: Array[Array[Double]],
      specs: Array[ColumnSpec],
      n: Long,
      m: Long,
      alpha: Double,
      initialEdges: Map[Int, Array[Double]] = Map.empty
  ): PairwiseHist = {
    val d = sample.length
    require(specs.length == d, s"specs=${specs.length} columns=$d")
    val nS = if (d == 0) 0L else sample(0).length.toLong
    val nullCounts = sample.map(_.count(_.isNaN).toLong)

    val hist1d = Array.tabulate(d)(i => Hist1D(i, build1D(sample(i), m, alpha, initialEdges.get(i), nS)))

    val hist2d = (for {
      i <- 1 until d
      j <- 0 until i
    } yield {
      val h2 = build2D(sample(i), sample(j), hist1d(i).meta.edges, hist1d(j).meta.edges, m, alpha)
      (i, j) -> Hist2D(
        i, j,
        shareDimMeta(h2.metaI, hist1d(i).meta),
        shareDimMeta(h2.metaJ, hist1d(j).meta),
        h2.counts
      )
    }).toMap

    PairwiseHist(n, nS, m, alpha, specs, hist1d, hist2d, nullCounts)
  }

  /** Collect a sample of a GD-domain DataFrame and build locally. */
  def buildFromDf(
      gdDf: DataFrame,
      specs: Array[ColumnSpec],
      n: Long,
      nS: Int,
      m: Long,
      alpha: Double,
      seed: Long = 42,
      initialEdges: Map[Int, Array[Double]] = Map.empty
  ): PairwiseHist = {
    val sample = collectSample(gdDf, n, nS, seed)
    build(sample, specs, n, m, alpha, initialEdges)
  }

  /** Deterministic unbiased sample of up to `nS` rows as column-major
    * doubles (see [[repro.util.Sampling]] for why limit() is not used).
    */
  def collectSample(gdDf: DataFrame, n: Long, nS: Int, seed: Long): Array[Array[Double]] = {
    val d = gdDf.columns.length
    val rows = repro.util.Sampling.collectRows(gdDf, nS, seed, n)
    Array.tabulate(d) { c =>
      rows.map(r => if (r.isNullAt(c)) Double.NaN else r.getLong(c).toDouble)
    }
  }

  // ---------------------------------------------------------------- 1-d ----

  /** One-dimensional histogram with recursive refinement (Alg 1 lines 3–12). */
  def build1D(values: Array[Double], m: Long, alpha: Double, seeds: Option[Array[Double]], nS: Long): DimMeta = {
    val xs = values.filterNot(_.isNaN).sorted
    if (xs.isEmpty)
      return DimMeta(Array(0.0, 1.0), Array(0.0), Array(1.0), Array(0L), Array(0L))

    val mn = xs.head
    val mx = xs.last
    if (mn == mx)
      return DimMeta(Array(mn, mn + 1.0), Array(mn), Array(mn), Array(1L), Array(xs.length.toLong))

    val init = initialEdgeVector(mn, mx, seeds, nS, m)

    val edges = ArrayBuffer(init.head)
    val vMin = ArrayBuffer.empty[Double]
    val vMax = ArrayBuffer.empty[Double]
    val uniq = ArrayBuffer.empty[Long]

    var t = 0
    while (t < init.length - 1) {
      val lo = init(t)
      val hi = init(t + 1)
      val last = t == init.length - 2
      val slice = sliceSorted(xs, lo, hi, closedHi = last)
      val (e2, v2m, v2x, u2) = refine1D(lo, hi, slice, m, alpha)
      edges ++= e2; vMin ++= v2m; vMax ++= v2x; uniq ++= u2
      t += 1
    }

    val edgeArr = edges.toArray
    val counts = histCounts(xs, edgeArr)
    DimMeta(edgeArr, vMin.toArray, vMax.toArray, uniq.toArray, counts)
  }

  /** RefineBin1D (Algorithm 2): returns per-resulting-bin
    * (upper edges, bin minima, bin maxima, unique counts).
    */
  def refine1D(
      eL: Double, eR: Double, xs: Array[Double], m: Long, alpha: Double
  ): (Seq[Double], Seq[Double], Seq[Double], Seq[Long]) = {
    if (xs.isEmpty) return (Seq(eR), Seq(eL), Seq(eR), Seq(0L))
    val u = countDistinctSorted(xs)
    if (u == 1) return (Seq(eR), Seq(xs.head), Seq(xs.head), Seq(1L))
    val splittable = eR - eL > Theorems.Mu
    if (xs.length < m || !splittable || HypothesisTest.isUniform(xs, eL, eR, u, alpha))
      return (Seq(eR), Seq(xs.head), Seq(xs.last), Seq(u))
    val z = (eL + eR) / 2 // equal-width split
    if (z <= eL || z >= eR) return (Seq(eR), Seq(xs.head), Seq(xs.last), Seq(u))
    val cut = lowerBound(xs, z)
    val (l, r) = xs.splitAt(cut)
    val (eA, vA, xA, uA) = refine1D(eL, z, l, m, alpha)
    val (eB, vB, xB, uB) = refine1D(z, eR, r, m, alpha)
    (eA ++ eB, vA ++ vB, xA ++ xB, uA ++ uB)
  }

  /** Algorithm 1 line 4: seed edges downsampled to at most ceil(Ns/M)
    * values plus the column min/max. Without GD bases the paper starts from
    * just (min, max); we start from an equal-width grid of the same
    * ceil(Ns/M) resolution instead — a deliberate deviation documented in
    * DESIGN.md: a perfectly uniform column never fails the chi-squared test
    * and would otherwise stay a single bin, destroying AVG/SUM/MIN/MAX
    * resolution that the paper's GD-seeded operating point always has.
    */
  def initialEdgeVector(mn: Double, mx: Double, seeds: Option[Array[Double]], nS: Long, m: Long): Array[Double] = {
    val cap = math.max(1L, math.ceil(nS.toDouble / math.max(1L, m)).toLong).toInt
    seeds match {
      case Some(s0) if s0.nonEmpty =>
        val inRange = s0.filter(v => v > mn && v < mx).distinct.sorted
        val kept =
          if (inRange.length <= cap) inRange
          else {
            val step = inRange.length.toDouble / cap
            Array.tabulate(cap)(q => inRange(math.min(inRange.length - 1, (q * step).toInt))).distinct
          }
        (mn +: kept :+ mx).distinct.sorted
      case _ =>
        val k = math.min(cap.toLong, math.max(1L, (mx - mn).toLong)).toInt
        (0 to k).map(q => mn + (mx - mn) * q / k).distinct.toArray.sorted
    }
  }

  // ---------------------------------------------------------------- 2-d ----

  /** Two-dimensional histogram (Alg 1 lines 13–26): initial edges from the
    * 1-d histograms, RefineBin2D per initial cell with at least M points,
    * then a full recount + marginal metadata on the union of edges.
    */
  def build2D(
      xi: Array[Double], xj: Array[Double],
      edgesI0: Array[Double], edgesJ0: Array[Double],
      m: Long, alpha: Double
  ): Hist2D = {
    // Rows with a null in either column are excluded from this pair (§3,
    // missing-value support; SQL predicates on null fail).
    val pairs = ArrayBuffer.empty[(Double, Double)]
    var r = 0
    while (r < xi.length) {
      if (!xi(r).isNaN && !xj(r).isNaN) pairs += ((xi(r), xj(r)))
      r += 1
    }
    val pi = pairs.map(_._1).toArray
    val pj = pairs.map(_._2).toArray

    val newI = ArrayBuffer.empty[Double]
    val newJ = ArrayBuffer.empty[Double]

    // Iterate over initial cells; refine each independently (Alg 1 line 17).
    val cellPoints = groupByCell(pi, pj, edgesI0, edgesJ0)
    cellPoints.foreach { case ((ti, tj), idxs) =>
      if (idxs.length >= m) {
        val (ei, ej) = refine2D(
          edgesI0(ti), edgesI0(ti + 1), edgesJ0(tj), edgesJ0(tj + 1),
          idxs.map(pi(_)), idxs.map(pj(_)), m, alpha
        )
        newI ++= ei
        newJ ++= ej
      }
    }

    val edgesI = (edgesI0 ++ newI).distinct.sorted
    val edgesJ = (edgesJ0 ++ newJ).distinct.sorted

    finalize2D(pi, pj, edgesI, edgesJ)
  }

  /** RefineBin2D: test uniformity in each dimension; split the least uniform
    * dimension at its midpoint; recurse. Returns new edges per dimension.
    */
  def refine2D(
      loI: Double, hiI: Double, loJ: Double, hiJ: Double,
      xi: Array[Double], xj: Array[Double], m: Long, alpha: Double
  ): (Seq[Double], Seq[Double]) = {
    if (xi.length < m) return (Nil, Nil)

    def dimScore(xs: Array[Double], lo: Double, hi: Double): Double = {
      if (hi - lo <= Theorems.Mu) return 0.0 // cannot split further
      val u = countDistinct(xs)
      val s = HypothesisTest.subBins(u)
      if (s < 2) 0.0
      else {
        val chi2 = HypothesisTest.statistic(HypothesisTest.subBinCounts(xs, lo, hi, s))
        chi2 / HypothesisTest.criticalValue(alpha, s - 1) // > 1 means reject
      }
    }

    val scoreI = dimScore(xi, loI, hiI)
    val scoreJ = dimScore(xj, loJ, hiJ)
    if (scoreI <= 1.0 && scoreJ <= 1.0) return (Nil, Nil)

    val splitI = scoreI >= scoreJ
    if (splitI) {
      val z = (loI + hiI) / 2
      if (z <= loI || z >= hiI) return (Nil, Nil)
      val leftIdx = xi.indices.filter(xi(_) < z)
      val rightIdx = xi.indices.filter(xi(_) >= z)
      val (aI, aJ) = refine2D(loI, z, loJ, hiJ, leftIdx.map(xi(_)).toArray, leftIdx.map(xj(_)).toArray, m, alpha)
      val (bI, bJ) = refine2D(z, hiI, loJ, hiJ, rightIdx.map(xi(_)).toArray, rightIdx.map(xj(_)).toArray, m, alpha)
      (z +: (aI ++ bI), aJ ++ bJ)
    } else {
      val z = (loJ + hiJ) / 2
      if (z <= loJ || z >= hiJ) return (Nil, Nil)
      val leftIdx = xj.indices.filter(xj(_) < z)
      val rightIdx = xj.indices.filter(xj(_) >= z)
      val (aI, aJ) = refine2D(loI, hiI, loJ, z, leftIdx.map(xi(_)).toArray, leftIdx.map(xj(_)).toArray, m, alpha)
      val (bI, bJ) = refine2D(loI, hiI, z, hiJ, rightIdx.map(xi(_)).toArray, rightIdx.map(xj(_)).toArray, m, alpha)
      (aI ++ bI, z +: (aJ ++ bJ))
    }
  }

  /** Final recount + per-dimension marginal metadata on the union edges
    * (Alg 1 lines 22–26).
    */
  def finalize2D(pi: Array[Double], pj: Array[Double], edgesI: Array[Double], edgesJ: Array[Double]): Hist2D = {
    val kI = edgesI.length - 1
    val kJ = edgesJ.length - 1
    val counts = Array.fill(kI)(new Array[Long](kJ))
    val metaI = MarginAcc(kI)
    val metaJ = MarginAcc(kJ)
    var r = 0
    while (r < pi.length) {
      val ti = binIndex(edgesI, pi(r))
      val tj = binIndex(edgesJ, pj(r))
      counts(ti)(tj) += 1
      metaI.add(ti, pi(r))
      metaJ.add(tj, pj(r))
      r += 1
    }
    Hist2D(0, 0, metaI.toDimMeta(edgesI), metaJ.toDimMeta(edgesJ), counts)
  }

  /** Accumulates marginal min/max/count/distinct per bin along a dimension. */
  private final case class MarginAcc(k: Int) {
    val vMin: Array[Double] = Array.fill(k)(Double.NaN)
    val vMax: Array[Double] = Array.fill(k)(Double.NaN)
    val cnt: Array[Long] = new Array[Long](k)
    val sets: Array[java.util.HashSet[java.lang.Double]] =
      Array.fill(k)(new java.util.HashSet[java.lang.Double]())

    def add(t: Int, v: Double): Unit = {
      cnt(t) += 1
      if (vMin(t).isNaN || v < vMin(t)) vMin(t) = v
      if (vMax(t).isNaN || v > vMax(t)) vMax(t) = v
      sets(t).add(v)
    }

    def toDimMeta(edges: Array[Double]): DimMeta = {
      val mn = Array.tabulate(k)(t => if (vMin(t).isNaN) edges(t) else vMin(t))
      val mx = Array.tabulate(k)(t => if (vMax(t).isNaN) edges(t + 1) else vMax(t))
      DimMeta(edges, mn, mx, sets.map(_.size.toLong), cnt.clone())
    }
  }

  /** Eq 12's storage model: a pair-dimension bin whose edges coincide with
    * a 1-d bin SHARES that bin's metadata (only additional refined bins
    * carry their own). Applying the sharing at build time keeps the codec a
    * lossless round-trip and both builders identical. Marginal counts stay
    * exact (they are rederivable from the count matrix).
    */
  def shareDimMeta(pairMeta: DimMeta, oneD: DimMeta): DimMeta = {
    val parentBins = (0 until oneD.k).map(t => (oneD.edges(t), oneD.edges(t + 1)) -> t).toMap
    val vMin = pairMeta.vMin.clone()
    val vMax = pairMeta.vMax.clone()
    val uniq = pairMeta.unique.clone()
    var t = 0
    while (t < pairMeta.k) {
      parentBins.get((pairMeta.edges(t), pairMeta.edges(t + 1))) match {
        case Some(p) =>
          vMin(t) = oneD.vMin(p); vMax(t) = oneD.vMax(p); uniq(t) = oneD.unique(p)
        case None => ()
      }
      t += 1
    }
    DimMeta(pairMeta.edges, vMin, vMax, uniq, pairMeta.counts)
  }

  // ------------------------------------------------------------- helpers ----

  /** Bin index with half-open bins and a closed final bin. */
  def binIndex(edges: Array[Double], x: Double): Int = {
    val k = edges.length - 1
    if (x >= edges(k)) return k - 1
    if (x <= edges(0)) return 0
    var lo = 0; var hi = k - 1
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (x >= edges(mid)) lo = mid else hi = mid - 1
    }
    lo
  }

  /** Standard Hist over sorted values given edges. */
  def histCounts(xsSorted: Array[Double], edges: Array[Double]): Array[Long] = {
    val k = edges.length - 1
    val counts = new Array[Long](k)
    var i = 0
    while (i < xsSorted.length) {
      counts(binIndex(edges, xsSorted(i))) += 1
      i += 1
    }
    counts
  }

  private def sliceSorted(xs: Array[Double], lo: Double, hi: Double, closedHi: Boolean): Array[Double] = {
    val a = lowerBound(xs, lo)
    val b = if (closedHi) upperBound(xs, hi) else lowerBound(xs, hi)
    xs.slice(a, b)
  }

  /** First index with xs(idx) >= v. */
  def lowerBound(xs: Array[Double], v: Double): Int = {
    var lo = 0; var hi = xs.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (xs(mid) < v) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** First index with xs(idx) > v. */
  def upperBound(xs: Array[Double], v: Double): Int = {
    var lo = 0; var hi = xs.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (xs(mid) <= v) lo = mid + 1 else hi = mid
    }
    lo
  }

  def countDistinctSorted(xsSorted: Array[Double]): Long = {
    if (xsSorted.isEmpty) 0L
    else {
      var u = 1L
      var i = 1
      while (i < xsSorted.length) {
        if (xsSorted(i) != xsSorted(i - 1)) u += 1
        i += 1
      }
      u
    }
  }

  def countDistinct(xs: Array[Double]): Long = {
    val set = new java.util.HashSet[java.lang.Double]()
    xs.foreach(set.add(_))
    set.size.toLong
  }

  private def groupByCell(
      pi: Array[Double], pj: Array[Double], edgesI: Array[Double], edgesJ: Array[Double]
  ): Map[(Int, Int), Array[Int]] = {
    val byCell = scala.collection.mutable.Map.empty[(Int, Int), ArrayBuffer[Int]]
    var r = 0
    while (r < pi.length) {
      val key = (binIndex(edgesI, pi(r)), binIndex(edgesJ, pj(r)))
      byCell.getOrElseUpdate(key, ArrayBuffer.empty) += r
      r += 1
    }
    byCell.map { case (k, v) => k -> v.toArray }.toMap
  }
}
