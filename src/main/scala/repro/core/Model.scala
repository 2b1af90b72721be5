package repro.core

import repro.gd.ColumnSpec

/** Per-bin metadata along one dimension of a histogram (Fig 4).
  *
  * Arrays are indexed by bin; a histogram with k bins has k+1 edges. For
  * 2-d histograms the metadata along dimension i are marginal over the
  * other dimension (min/max/unique of the points whose i-value falls in
  * bin t, regardless of their j-bin).
  */
final case class DimMeta(
    edges: Array[Double],
    vMin: Array[Double],
    vMax: Array[Double],
    unique: Array[Long],
    counts: Array[Long]
) {
  def k: Int = counts.length
  require(edges.length == k + 1, s"edges=${edges.length} for k=$k bins")
  require(vMin.length == k && vMax.length == k && unique.length == k)

  /** Bin midpoints c_t = (vMin + vMax) / 2 — rederived, never stored. */
  lazy val midpoints: Array[Double] = Array.tabulate(k)(t => (vMin(t) + vMax(t)) / 2)

  /** Weighted-centre bounds per bin (Eq 10) — rederived, never stored. */
  def centreBounds(m: Long, alpha: Double): (Array[Double], Array[Double]) = {
    val lo = new Array[Double](k)
    val hi = new Array[Double](k)
    var t = 0
    while (t < k) {
      val (l, h) = Theorems.weightedCentreBounds(counts(t), unique(t), vMin(t), vMax(t), m, alpha)
      lo(t) = l; hi(t) = h; t += 1
    }
    (lo, hi)
  }

  /** For each bin of a pair dimension that refines `oneD`, the 1-d bin
    * containing it: its centre's bin.
    */
  def parents(oneD: DimMeta): Array[Int] =
    Array.tabulate(k)(t => DimMeta.binOf(oneD.edges, (edges(t) + edges(t + 1)) / 2))

  /** Eq 12: for each bin of a pair dimension that refines `oneD`, the 1-d
    * bin whose metadata it shares, or -1. A bin shares exactly when both of
    * its edges are its parent's edges, i.e. refinement did not split it.
    */
  def sharedBins(oneD: DimMeta): Array[Int] = {
    val p = parents(oneD)
    Array.tabulate(k)(t => if (edges(t) == oneD.edges(p(t)) && edges(t + 1) == oneD.edges(p(t) + 1)) p(t) else -1)
  }

  /** This pair dimension with every bin that `sharedBins` pairs with a 1-d
    * bin taking that bin's vMin/vMax/unique. The builder stores pair
    * metadata this way, so the codec, which stores only the unshared bins,
    * decodes it exactly.
    */
  def shareWith(oneD: DimMeta): DimMeta = {
    val p = sharedBins(oneD)
    def pick[A: scala.reflect.ClassTag](own: Array[A], theirs: Array[A]): Array[A] =
      Array.tabulate(k)(t => if (p(t) >= 0) theirs(p(t)) else own(t))
    DimMeta(edges, pick(vMin, oneD.vMin), pick(vMax, oneD.vMax), pick(unique, oneD.unique), counts)
  }
}

object DimMeta {

  /** Index of the bin of `edges` containing `x`: bins are half-open, the
    * last bin is closed, and values outside the edges clamp to the end bins.
    */
  def binOf(edges: Array[Double], x: Double): Int = {
    var lo = 0; var hi = edges.length - 2
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (x >= edges(mid)) lo = mid else hi = mid - 1
    }
    lo
  }
}

/** One-dimensional histogram for a single column (§4). */
final case class Hist1D(col: Int, meta: DimMeta) {
  def k: Int = meta.k
}

/** Two-dimensional histogram for a pair of columns i > j (§4).
  *
  * `counts(ti)(tj)` is the number of sample points with non-null values in
  * both columns falling in bin (ti, tj). `metaI.edges` refines the 1-d
  * edges of column i (splits only add edges), likewise for j.
  */
final case class Hist2D(colI: Int, colJ: Int, metaI: DimMeta, metaJ: DimMeta, counts: Array[Array[Long]]) {
  require(counts.length == metaI.k, s"rows=${counts.length} metaI.k=${metaI.k}")
  require(counts.forall(_.length == metaJ.k))
}

object Hist2D {

  /** A pair histogram whose dimensions carry the count matrix's marginals:
    * row sums along i, column sums along j. Marginal counts are never
    * stored (Fig 6); the builder and the codec both derive them here.
    */
  def withMarginals(colI: Int, colJ: Int, metaI: DimMeta, metaJ: DimMeta, counts: Array[Array[Long]]): Hist2D = {
    val cntJ = new Array[Long](metaJ.k)
    counts.foreach { row =>
      var tj = 0
      while (tj < row.length) { cntJ(tj) += row(tj); tj += 1 }
    }
    Hist2D(colI, colJ, metaI.copy(counts = counts.map(_.sum)), metaJ.copy(counts = cntJ), counts)
  }
}

/** The PairwiseHist synopsis: all 1-d histograms, all pair histograms, and
  * the construction parameters needed at query time (§3, Fig 2).
  *
  * @param n          rows in the full dataset
  * @param nS         rows in the construction sample
  * @param m          minimum bin count for splitting (and the pass marker)
  * @param alpha      hypothesis-test significance
  * @param specs      GD pre-processing specs (literal transformation, §5.1)
  * @param nullCounts per-column null count within the sample
  */
final case class PairwiseHist(
    n: Long,
    nS: Long,
    m: Long,
    alpha: Double,
    specs: Array[ColumnSpec],
    hist1d: Array[Hist1D],
    hist2d: Map[(Int, Int), Hist2D],
    nullCounts: Array[Long]
) {
  def d: Int = hist1d.length

  /** Sampling ratio rho = Ns / N. */
  def rho: Double = nS.toDouble / n

  /** Pair histogram for columns (a, b) in either order. */
  def pair(a: Int, b: Int): Option[Hist2D] =
    hist2d.get((math.max(a, b), math.min(a, b)))

  // Each name's first index, as `indexWhere` would find it.
  private val columnIndices: Map[String, Int] =
    specs.indices.reverseIterator.map(i => specs(i).name -> i).toMap

  def columnIndex(name: String): Int = {
    val i = columnIndices.getOrElse(name, -1)
    require(i >= 0, s"unknown column '$name' (have ${specs.map(_.name).mkString(",")})")
    i
  }
}
