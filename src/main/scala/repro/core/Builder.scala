package repro.core

import java.util.concurrent.{Callable, ExecutionException, Executors}

import org.apache.spark.sql.DataFrame
import repro.gd.{ColumnSpec, Preprocess}

import scala.collection.mutable.ArrayBuffer

/** PairwiseHist construction (Algorithm 1) over a weighted sample.
  *
  * Values are in the GD integer domain as Doubles; missing values are NaN.
  * Splits are equal-width (the paper tested both and chose equal-width).
  *
  * Algorithm 1 reads nothing but the construction sample, and refinement
  * only ever sums row weights: bin counts, unique counts, extrema and
  * chi-squared sub-bin counts are all weighted reductions of the sample.
  * So there is one implementation, [[buildWeighted]], over column-major
  * values plus a `Long` weight per row, and two ways to load a sample into
  * it: [[build]] gives every row of a collected sample weight 1, and
  * [[DistributedBuilder]] collects the sample's distinct rows with their
  * multiplicities in one DataFrame aggregation. A (vi, vj) that repeats
  * across rows is harmless for the same reason.
  */
object Builder {

  /** Build from a column-major sample, each row with weight 1.
    * `initialEdges` optionally seeds 1-d bin edges with GreedyGD base values
    * (§3); they are downsampled to at most ceil(Ns/M) values (Algorithm 1
    * line 4).
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
    val nS = if (sample.isEmpty) 0 else sample(0).length
    buildWeighted(sample, Array.fill(nS)(1L), specs, n, m, alpha, initialEdges)
  }

  /** Algorithm 1 over rows with weights: row r has values(c)(r) in column c
    * and stands for wts(r) sample rows. Ns is the sum of the weights. The
    * d(d−1)/2 pairs are refined in parallel on a fixed pool sized to the
    * machine's cores.
    */
  def buildWeighted(
      values: Array[Array[Double]],
      wts: Array[Long],
      specs: Array[ColumnSpec],
      n: Long,
      m: Long,
      alpha: Double,
      initialEdges: Map[Int, Array[Double]]
  ): PairwiseHist = {
    val d = values.length
    require(specs.length == d, s"specs=${specs.length} columns=$d")
    require(values.forall(_.length == wts.length),
      s"every column needs one value per row: ${wts.length} rows, column lengths ${values.map(_.length).mkString(",")}")
    val nS = wts.sum
    val nullCounts = values.map { xs =>
      var s = 0L
      var q = 0
      while (q < xs.length) { if (xs(q).isNaN) s += wts(q); q += 1 }
      s
    }

    val hist1d = Array.tabulate(d) { i =>
      val (vals, w) = distinctWeighted(values(i), wts)
      Hist1D(i, build1D(vals, w, initialEdges.get(i), nS, m, alpha))
    }

    val pairs = for { i <- 1 until d; j <- 0 until i } yield (i, j)
    val hist2d = inParallel(pairs) { case (i, j) =>
      val h2 = build2D(values(i), values(j), wts, hist1d(i).meta.edges, hist1d(j).meta.edges, m, alpha)
      h2.copy(colI = i, colJ = j, metaI = h2.metaI.shareWith(hist1d(i).meta), metaJ = h2.metaJ.shareWith(hist1d(j).meta))
    }

    PairwiseHist(n, nS, m, alpha, specs, hist1d, pairs.zip(hist2d).toMap, nullCounts)
  }

  /** Deterministic unbiased sample of up to `nS` rows as column-major
    * doubles (see [[repro.util.Sampling]] for why limit() is not used).
    *
    * @throws IllegalArgumentException if a value lies beyond ±2^53
    */
  def collectSample(gdDf: DataFrame, n: Long, nS: Int, seed: Long): Array[Array[Double]] = {
    val names = gdDf.columns
    val rows = repro.util.Sampling.collectRows(gdDf, nS, seed, n)
    Array.tabulate(names.length) { c =>
      rows.map(r => if (r.isNullAt(c)) Double.NaN else Preprocess.exactDouble(r.getLong(c), names(c)))
    }
  }

  // ---------------------------------------------------------------- 1-d ----

  /** One-dimensional histogram with recursive refinement (Alg 1 lines 3–12)
    * over a column's sorted distinct values and their weights. `vals` must
    * be strictly increasing: refinement counts the distinct values of a
    * range by its length.
    */
  def build1D(
      vals: Array[Double], wts: Array[Long],
      seeds: Option[Array[Double]], nS: Long, m: Long, alpha: Double
  ): DimMeta = {
    require((1 until vals.length).forall(q => vals(q - 1) < vals(q)), "vals must be strictly increasing")
    if (vals.isEmpty)
      return DimMeta(Array(0.0, 1.0), Array(0.0), Array(1.0), Array(0L), Array(0L))
    val mn = vals.head
    val mx = vals.last
    if (mn == mx)
      return DimMeta(Array(mn, mn + 1.0), Array(mn), Array(mn), Array(1L), Array(wts.sum))

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
      val a = lowerBound(vals, lo)
      val b = if (last) upperBound(vals, hi) else lowerBound(vals, hi)
      val (e2, v2m, v2x, u2) = refine1D(lo, hi, vals, wts, a, b, m, alpha)
      edges ++= e2; vMin ++= v2m; vMax ++= v2x; uniq ++= u2
      t += 1
    }
    val edgeArr = edges.toArray
    val counts = new Array[Long](edgeArr.length - 1)
    var q = 0
    while (q < vals.length) {
      counts(DimMeta.binOf(edgeArr, vals(q))) += wts(q)
      q += 1
    }
    DimMeta(edgeArr, vMin.toArray, vMax.toArray, uniq.toArray, counts)
  }

  /** RefineBin1D (Algorithm 2) over vals(from until until): returns
    * per-resulting-bin (upper edges, bin minima, bin maxima, unique counts).
    */
  private def refine1D(
      eL: Double, eR: Double,
      vals: Array[Double], wts: Array[Long], from: Int, until: Int,
      m: Long, alpha: Double
  ): (Seq[Double], Seq[Double], Seq[Double], Seq[Long]) = {
    val u = (until - from).toLong // distinct values in range (vals are distinct)
    if (u == 0) return (Seq(eR), Seq(eL), Seq(eR), Seq(0L))
    if (u == 1) return (Seq(eR), Seq(vals(from)), Seq(vals(from)), Seq(1L))
    var h = 0L
    var q = from
    while (q < until) { h += wts(q); q += 1 }
    val splittable = eR - eL > Theorems.Mu
    if (h < m || !splittable ||
        HypothesisTest.nonUniformity(vals, wts, from, until, eL, eR, u, alpha) <= 1.0)
      return (Seq(eR), Seq(vals(from)), Seq(vals(until - 1)), Seq(u))
    val z = (eL + eR) / 2 // equal-width split
    if (z <= eL || z >= eR)
      return (Seq(eR), Seq(vals(from)), Seq(vals(until - 1)), Seq(u))
    val cut = lowerBound(vals, z) match {
      case c if c < from  => from
      case c if c > until => until
      case c              => c
    }
    val (eA, vA, xA, uA) = refine1D(eL, z, vals, wts, from, cut, m, alpha)
    val (eB, vB, xB, uB) = refine1D(z, eR, vals, wts, cut, until, m, alpha)
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

  /** Two-dimensional histogram (Alg 1 lines 13–26) over the (vi, vj, weight)
    * columns of a pair: initial edges from the 1-d histograms, RefineBin2D
    * per initial cell with at least M weight, then a full recount + marginal
    * metadata on the union of edges. Rows with a null (NaN) in either column
    * are left out (§3, missing-value support; SQL predicates on null fail).
    * Each initial cell is a contiguous run of the cell-sorted rows that the
    * recursion partitions in place.
    */
  def build2D(
      xi: Array[Double], xj: Array[Double], wts: Array[Long],
      edgesI0: Array[Double], edgesJ0: Array[Double],
      m: Long, alpha: Double
  ): Hist2D = {
    // Sort the non-null rows by initial cell: key = cell << 32 | row.
    val kJ0 = (edgesJ0.length - 1).toLong
    val keys = new Array[Long](xi.length)
    var n = 0
    var r = 0
    while (r < xi.length) {
      if (!xi(r).isNaN && !xj(r).isNaN) {
        val cell = DimMeta.binOf(edgesI0, xi(r)) * kJ0 + DimMeta.binOf(edgesJ0, xj(r))
        keys(n) = (cell << 32) | r
        n += 1
      }
      r += 1
    }
    val order = java.util.Arrays.copyOf(keys, n)
    java.util.Arrays.sort(order)
    val pi = new Array[Double](n)
    val pj = new Array[Double](n)
    val pw = new Array[Long](n)
    var q = 0
    while (q < n) {
      val row = order(q).toInt
      pi(q) = xi(row); pj(q) = xj(row); pw(q) = wts(row)
      q += 1
    }

    val newI = ArrayBuffer.empty[Double]
    val newJ = ArrayBuffer.empty[Double]
    var from = 0
    while (from < order.length) {
      val cell = order(from) >>> 32
      var until = from + 1
      while (until < order.length && (order(until) >>> 32) == cell) until += 1
      val ti = (cell / kJ0).toInt
      val tj = (cell % kJ0).toInt
      refine2D(edgesI0(ti), edgesI0(ti + 1), edgesJ0(tj), edgesJ0(tj + 1),
        pi, pj, pw, from, until, m, alpha, newI, newJ)
      from = until
    }

    finalize2D(pi, pj, pw, sortedDistinct(edgesI0 ++ newI), sortedDistinct(edgesJ0 ++ newJ))
  }

  /** RefineBin2D over rows `from until until`: test uniformity in each
    * dimension, split the least uniform one at its midpoint, recurse.
    * Appends the split points it adds to `newI`/`newJ` and partitions the
    * rows in place.
    */
  private def refine2D(
      loI: Double, hiI: Double, loJ: Double, hiJ: Double,
      xi: Array[Double], xj: Array[Double], w: Array[Long], from: Int, until: Int,
      m: Long, alpha: Double,
      newI: ArrayBuffer[Double], newJ: ArrayBuffer[Double]
  ): Unit = {
    var h = 0L
    var q = from
    while (q < until) { h += w(q); q += 1 }
    if (h < m) return

    def dimScore(xs: Array[Double], lo: Double, hi: Double): Double =
      if (hi - lo <= Theorems.Mu) 0.0 // cannot split further
      else HypothesisTest.nonUniformity(xs, w, from, until, lo, hi, countDistinct(xs, from, until), alpha)

    val scoreI = dimScore(xi, loI, hiI)
    val scoreJ = dimScore(xj, loJ, hiJ)
    if (scoreI <= 1.0 && scoreJ <= 1.0) return

    if (scoreI >= scoreJ) {
      val z = (loI + hiI) / 2
      if (z <= loI || z >= hiI) return
      newI += z
      val cut = partition(xi, xj, w, from, until, z)
      refine2D(loI, z, loJ, hiJ, xi, xj, w, from, cut, m, alpha, newI, newJ)
      refine2D(z, hiI, loJ, hiJ, xi, xj, w, cut, until, m, alpha, newI, newJ)
    } else {
      val z = (loJ + hiJ) / 2
      if (z <= loJ || z >= hiJ) return
      newJ += z
      val cut = partition(xj, xi, w, from, until, z)
      refine2D(loI, hiI, loJ, z, xi, xj, w, from, cut, m, alpha, newI, newJ)
      refine2D(loI, hiI, z, hiJ, xi, xj, w, cut, until, m, alpha, newI, newJ)
    }
  }

  /** Final recount + per-dimension marginal metadata on the union edges
    * (Alg 1 lines 22–26).
    */
  private def finalize2D(
      pi: Array[Double], pj: Array[Double], pw: Array[Long],
      edgesI: Array[Double], edgesJ: Array[Double]
  ): Hist2D = {
    val counts = Array.fill(edgesI.length - 1)(new Array[Long](edgesJ.length - 1))
    var r = 0
    while (r < pi.length) {
      counts(DimMeta.binOf(edgesI, pi(r)))(DimMeta.binOf(edgesJ, pj(r))) += pw(r)
      r += 1
    }
    Hist2D.withMarginals(0, 0, marginMeta(pi, edgesI), marginMeta(pj, edgesJ), counts)
  }

  /** Per-bin min/max/distinct of `xs` along one dimension; empty bins take
    * their edges as extrema. Counts are left to [[Hist2D.withMarginals]].
    */
  private def marginMeta(xs: Array[Double], edges: Array[Double]): DimMeta = {
    val k = edges.length - 1
    val vMin = Array.tabulate(k)(t => edges(t))
    val vMax = Array.tabulate(k)(t => edges(t + 1))
    val uniq = new Array[Long](k)
    sortedDistinct(xs).foreach { v =>
      val t = DimMeta.binOf(edges, v)
      if (uniq(t) == 0) vMin(t) = v
      vMax(t) = v
      uniq(t) += 1
    }
    DimMeta(edges, vMin, vMax, uniq, new Array[Long](k))
  }

  // ------------------------------------------------------------- helpers ----

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

  /** Moves the rows of xs(from until until) below `z` to the front, carrying
    * `other` and `w` along; returns the first index of the rest.
    */
  private def partition(
      xs: Array[Double], other: Array[Double], w: Array[Long], from: Int, until: Int, z: Double
  ): Int = {
    var lo = from
    var hi = until - 1
    while (lo <= hi) {
      if (xs(lo) < z) lo += 1
      else {
        val x = xs(lo); xs(lo) = xs(hi); xs(hi) = x
        val o = other(lo); other(lo) = other(hi); other(hi) = o
        val c = w(lo); w(lo) = w(hi); w(hi) = c
        hi -= 1
      }
    }
    lo
  }

  /** Distinct values of xs(from until until), counted by sorting a copy. */
  private def countDistinct(xs: Array[Double], from: Int, until: Int): Long = {
    val s = java.util.Arrays.copyOfRange(xs, from, until)
    java.util.Arrays.sort(s)
    var u = if (s.isEmpty) 0L else 1L
    var q = 1
    while (q < s.length) {
      if (java.lang.Double.compare(s(q), s(q - 1)) != 0) u += 1
      q += 1
    }
    u
  }

  /** `xs.distinct.sorted` on primitives: a sorted copy without repeats. */
  private def sortedDistinct(xs: Array[Double]): Array[Double] = {
    val s = xs.clone()
    java.util.Arrays.sort(s)
    var u = 0
    var q = 0
    while (q < s.length) {
      if (u == 0 || java.lang.Double.compare(s(q), s(u - 1)) != 0) { s(u) = s(q); u += 1 }
      q += 1
    }
    java.util.Arrays.copyOf(s, u)
  }

  /** Sorted distinct non-null values of `xs` with their summed weights. */
  private def distinctWeighted(xs: Array[Double], wts: Array[Long]): (Array[Double], Array[Long]) = {
    val vals = sortedDistinct(xs.filterNot(_.isNaN))
    val w = new Array[Long](vals.length)
    var q = 0
    while (q < xs.length) {
      if (!xs(q).isNaN) w(java.util.Arrays.binarySearch(vals, xs(q))) += wts(q)
      q += 1
    }
    (vals, w)
  }

  /** Runs `f` over `xs` on a fixed pool of the machine's cores; results keep
    * the order of `xs`.
    */
  private def inParallel[A, B](xs: IndexedSeq[A])(f: A => B): IndexedSeq[B] =
    if (xs.isEmpty) IndexedSeq.empty
    else {
      val pool = Executors.newFixedThreadPool(math.min(xs.length, Runtime.getRuntime.availableProcessors))
      try {
        val futures = xs.map(x => pool.submit(new Callable[B] { def call(): B = f(x) }))
        try futures.map(_.get)
        catch { case e: ExecutionException => throw e.getCause }
      } finally { pool.shutdownNow(); () }
    }
}
