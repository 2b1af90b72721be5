package repro.core

import java.util.concurrent.{Callable, ExecutionException, Executors}

import org.apache.spark.sql.DataFrame
import repro.gd.ColumnSpec

import scala.collection.mutable.ArrayBuffer

/** Distributed PairwiseHist construction (the `distributed_dataflow` path).
  *
  * Algorithm 1 reads nothing but the construction sample, so the weighted
  * multiset of its distinct rows is an exact sufficient statistic for every
  * 1-d and 2-d histogram: bin counts, unique counts, extrema and chi-squared
  * sub-bin counts are all weighted reductions of it. The one pass over the
  * data is therefore one DataFrame aggregation, `groupBy(all columns)` with a
  * row count, partially aggregated per partition by Catalyst and collected
  * into primitive column arrays plus a weight array. It has at most Ns rows,
  * so the driver keeps at most Ns × (d+1) longs' worth of arrays whatever
  * the number of pairs.
  *
  * The driver derives the null counts, each column's sorted distinct values
  * with weights, and each pair's (vi, vj, w) columns from those arrays. A
  * (vi, vj) that repeats across distinct rows is harmless: refinement only
  * ever sums weights. The d(d−1)/2 pairs are refined in parallel on a fixed
  * pool sized to the driver's cores. The build caches nothing.
  *
  * Produces bit-identical synopses to [[Builder]] on the same sample
  * (verified by DistributedBuilderSpec).
  */
object DistributedBuilder {

  def build(
      gdSample: DataFrame,
      specs: Array[ColumnSpec],
      n: Long,
      m: Long,
      alpha: Double,
      initialEdges: Map[Int, Array[Double]] = Map.empty
  ): PairwiseHist = {
    val d = specs.length
    val cols = gdSample.columns
    require(cols.length == d, s"df has ${cols.length} columns, specs $d")
    val (values, wts) = distinctRows(gdSample)
    val nS = wts.sum
    val nullCounts = values.map { xs =>
      var s = 0L
      var q = 0
      while (q < xs.length) { if (xs(q).isNaN) s += wts(q); q += 1 }
      s
    }

    val hist1d = Array.tabulate(d) { i =>
      val (vals, w) = distinctWeighted(values(i), wts)
      Hist1D(i, wBuild1D(vals, w, initialEdges.get(i), nS, m, alpha))
    }

    val pairs = for { i <- 1 until d; j <- 0 until i } yield (i, j)
    val hist2d = inParallel(pairs) { case (i, j) =>
      val h2 = wBuild2D(values(i), values(j), wts, hist1d(i).meta.edges, hist1d(j).meta.edges, m, alpha)
      Hist2D(
        i, j,
        Builder.shareDimMeta(h2.metaI, hist1d(i).meta),
        Builder.shareDimMeta(h2.metaJ, hist1d(j).meta),
        h2.counts
      )
    }

    PairwiseHist(n, nS, m, alpha, specs, hist1d, pairs.zip(hist2d).toMap, nullCounts)
  }

  /** The one Spark job: distinct rows of `df` with their multiplicities, as
    * column-major doubles (NaN for null) and a weight array.
    */
  private def distinctRows(df: DataFrame): (Array[Array[Double]], Array[Long]) = {
    val d = df.columns.length
    val keys = df.columns.toIndexedSeq.map(c => df.col("`" + c.replace("`", "``") + "`"))
    val rows = df.groupBy(keys: _*).count().collect()
    val values = Array.fill(d)(new Array[Double](rows.length))
    val wts = new Array[Long](rows.length)
    var q = 0
    while (q < rows.length) {
      val r = rows(q)
      var c = 0
      while (c < d) {
        values(c)(q) = if (r.isNullAt(c)) Double.NaN else r.getLong(c).toDouble
        c += 1
      }
      wts(q) = r.getLong(d)
      q += 1
    }
    (values, wts)
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

  /** Runs `f` over `xs` on a fixed pool of the driver's cores; results keep
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

  // -------------------------------------------------- weighted refinement ----

  /** 1-d build over a (sorted values, weights) histogram — the weighted
    * mirror of [[Builder.build1D]]. `vals` must be strictly increasing:
    * refinement counts the distinct values of a range by its length.
    */
  def wBuild1D(
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

    val init = Builder.initialEdgeVector(mn, mx, seeds, nS, m)
    val edges = ArrayBuffer(init.head)
    val vMin = ArrayBuffer.empty[Double]
    val vMax = ArrayBuffer.empty[Double]
    val uniq = ArrayBuffer.empty[Long]
    var t = 0
    while (t < init.length - 1) {
      val lo = init(t)
      val hi = init(t + 1)
      val last = t == init.length - 2
      val a = Builder.lowerBound(vals, lo)
      val b = if (last) Builder.upperBound(vals, hi) else Builder.lowerBound(vals, hi)
      val (e2, v2m, v2x, u2) = wRefine1D(lo, hi, vals, wts, a, b, m, alpha)
      edges ++= e2; vMin ++= v2m; vMax ++= v2x; uniq ++= u2
      t += 1
    }
    val edgeArr = edges.toArray
    val counts = new Array[Long](edgeArr.length - 1)
    var q = 0
    while (q < vals.length) {
      counts(Builder.binIndex(edgeArr, vals(q))) += wts(q)
      q += 1
    }
    DimMeta(edgeArr, vMin.toArray, vMax.toArray, uniq.toArray, counts)
  }

  /** Weighted RefineBin1D over vals(from until until). */
  private def wRefine1D(
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
    val uniform = {
      val s = HypothesisTest.subBins(u)
      s < 2 || HypothesisTest.statistic(subBinCounts(vals, wts, from, until, eL, eR, s)) <=
        HypothesisTest.criticalValue(alpha, s - 1)
    }
    if (h < m || !splittable || uniform)
      return (Seq(eR), Seq(vals(from)), Seq(vals(until - 1)), Seq(u))
    val z = (eL + eR) / 2
    if (z <= eL || z >= eR)
      return (Seq(eR), Seq(vals(from)), Seq(vals(until - 1)), Seq(u))
    val cut = Builder.lowerBound(vals, z) match {
      case c if c < from  => from
      case c if c > until => until
      case c              => c
    }
    val (eA, vA, xA, uA) = wRefine1D(eL, z, vals, wts, from, cut, m, alpha)
    val (eB, vB, xB, uB) = wRefine1D(z, eR, vals, wts, cut, until, m, alpha)
    (eA ++ eB, vA ++ vB, xA ++ xB, uA ++ uB)
  }

  /** 2-d build over the (vi, vj, weight) columns of a pair — the weighted
    * mirror of [[Builder.build2D]]. Rows with a null (NaN) in either column
    * are left out. Refinement iterates over the initial cells of the 1-d
    * edges, exactly as Algorithm 1 lines 17–21, each cell a contiguous run
    * of the cell-sorted rows that the recursion partitions in place.
    */
  def wBuild2D(
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
        val cell = Builder.binIndex(edgesI0, xi(r)) * kJ0 + Builder.binIndex(edgesJ0, xj(r))
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
      wRefine2D(edgesI0(ti), edgesI0(ti + 1), edgesJ0(tj), edgesJ0(tj + 1),
        pi, pj, pw, from, until, m, alpha, newI, newJ)
      from = until
    }

    wFinalize2D(pi, pj, pw, sortedDistinct(edgesI0 ++ newI), sortedDistinct(edgesJ0 ++ newJ))
  }

  /** Weighted RefineBin2D over rows `from until until`: appends the split
    * points it adds to `newI`/`newJ` and partitions the rows in place.
    */
  private def wRefine2D(
      loI: Double, hiI: Double, loJ: Double, hiJ: Double,
      xi: Array[Double], xj: Array[Double], w: Array[Long], from: Int, until: Int,
      m: Long, alpha: Double,
      newI: ArrayBuffer[Double], newJ: ArrayBuffer[Double]
  ): Unit = {
    var h = 0L
    var q = from
    while (q < until) { h += w(q); q += 1 }
    if (h < m) return

    def dimScore(xs: Array[Double], lo: Double, hi: Double): Double = {
      if (hi - lo <= Theorems.Mu) return 0.0
      val s = HypothesisTest.subBins(countDistinct(xs, from, until))
      if (s < 2) 0.0
      else HypothesisTest.statistic(subBinCounts(xs, w, from, until, lo, hi, s)) /
        HypothesisTest.criticalValue(alpha, s - 1)
    }

    val scoreI = dimScore(xi, loI, hiI)
    val scoreJ = dimScore(xj, loJ, hiJ)
    if (scoreI <= 1.0 && scoreJ <= 1.0) return

    if (scoreI >= scoreJ) {
      val z = (loI + hiI) / 2
      if (z <= loI || z >= hiI) return
      newI += z
      val cut = partition(xi, xj, w, from, until, z)
      wRefine2D(loI, z, loJ, hiJ, xi, xj, w, from, cut, m, alpha, newI, newJ)
      wRefine2D(z, hiI, loJ, hiJ, xi, xj, w, cut, until, m, alpha, newI, newJ)
    } else {
      val z = (loJ + hiJ) / 2
      if (z <= loJ || z >= hiJ) return
      newJ += z
      val cut = partition(xj, xi, w, from, until, z)
      wRefine2D(loI, hiI, loJ, z, xi, xj, w, from, cut, m, alpha, newI, newJ)
      wRefine2D(loI, hiI, z, hiJ, xi, xj, w, cut, until, m, alpha, newI, newJ)
    }
  }

  /** Final recount + per-dimension marginal metadata on the union edges. */
  private def wFinalize2D(
      pi: Array[Double], pj: Array[Double], pw: Array[Long],
      edgesI: Array[Double], edgesJ: Array[Double]
  ): Hist2D = {
    val counts = Array.fill(edgesI.length - 1)(new Array[Long](edgesJ.length - 1))
    var r = 0
    while (r < pi.length) {
      counts(Builder.binIndex(edgesI, pi(r)))(Builder.binIndex(edgesJ, pj(r))) += pw(r)
      r += 1
    }
    val cntI = counts.map(_.sum)
    val cntJ = new Array[Long](edgesJ.length - 1)
    counts.foreach(row => (0 until row.length).foreach(tj => cntJ(tj) += row(tj)))
    Hist2D(0, 0, marginMeta(pi, edgesI, cntI), marginMeta(pj, edgesJ, cntJ), counts)
  }

  /** Per-bin min/max/distinct of `xs` along one dimension; empty bins take
    * their edges as extrema.
    */
  private def marginMeta(xs: Array[Double], edges: Array[Double], cnt: Array[Long]): DimMeta = {
    val k = cnt.length
    val vMin = Array.tabulate(k)(t => edges(t))
    val vMax = Array.tabulate(k)(t => edges(t + 1))
    val uniq = new Array[Long](k)
    sortedDistinct(xs).foreach { v =>
      val t = Builder.binIndex(edges, v)
      if (uniq(t) == 0) vMin(t) = v
      vMax(t) = v
      uniq(t) += 1
    }
    DimMeta(edges, vMin, vMax, uniq, cnt)
  }

  // ------------------------------------------------------------- helpers ----

  /** Weighted equal-width sub-bin counts of xs(from until until) over
    * [lo, hi], as [[HypothesisTest.subBinCounts]].
    */
  private def subBinCounts(
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
}
