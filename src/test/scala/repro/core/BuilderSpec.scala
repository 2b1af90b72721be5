package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.gd.{ColumnSpec, NumericCol}

import scala.util.Random

class BuilderSpec extends AnyFunSuite {

  private def spec(name: String) = ColumnSpec(name, NumericCol(1, 0), 0)

  private val M = 100L
  private val Alpha = 0.001

  /** A raw column as [[Builder.build1D]] takes it: sorted distinct non-null
    * values with their multiplicities.
    */
  private def build1D(xs: Array[Double], m: Long, nS: Long): DimMeta = {
    val byValue = xs.filterNot(_.isNaN).groupBy(identity).toArray.sortBy(_._1)
    Builder.build1D(byValue.map(_._1), byValue.map(_._2.length.toLong), None, nS, m, Alpha)
  }

  /** A raw pair as weight-1 rows. */
  private def build2D(xi: Array[Double], xj: Array[Double], ei: Array[Double], ej: Array[Double], m: Long): Hist2D =
    Builder.build2D(xi, xj, Array.fill(xi.length)(1L), ei, ej, m, Alpha)

  // ----------------------------------------------------------------- 1-d ----

  test("uniform column is not refined beyond the initial grid") {
    val rng = new Random(41)
    val xs = Array.fill(10000)(math.rint(rng.nextDouble() * 10000))
    val dm = build1D(xs, M, xs.length.toLong)
    // Initial grid is ceil(Ns/M) = 100 bins; uniform data should add few.
    val cap = math.ceil(xs.length.toDouble / M).toInt
    assert(dm.k <= cap + 10, s"k=${dm.k} cap=$cap")
    assert(dm.counts.sum == xs.length)
  }

  test("bimodal column is split") {
    val rng = new Random(43)
    val xs = Array.fill(10000)(
      if (rng.nextBoolean()) math.rint(rng.nextDouble() * 100) else math.rint(9900 + rng.nextDouble() * 100)
    )
    val dm = build1D(xs, M, xs.length.toLong)
    assert(dm.k >= 2)
    // The central empty region should be isolated: some bin has zero count.
    assert(dm.counts.contains(0L) || dm.k >= 3)
    assert(dm.counts.sum == xs.length)
  }

  test("bin metadata is exact: min/max/unique per bin") {
    val rng = new Random(47)
    val xs = Array.fill(5000)(math.rint(math.pow(rng.nextDouble(), 2) * 1000))
    val dm = build1D(xs, M, xs.length.toLong)
    val sorted = xs.sorted
    for (t <- 0 until dm.k) {
      val inBin = sorted.filter(v => DimMeta.binOf(dm.edges, v) == t)
      if (inBin.nonEmpty) {
        assert(dm.vMin(t) == inBin.min, s"bin $t vMin")
        assert(dm.vMax(t) == inBin.max, s"bin $t vMax")
        assert(dm.unique(t) == inBin.distinct.length, s"bin $t unique")
        assert(dm.counts(t) == inBin.length, s"bin $t count")
      } else {
        assert(dm.counts(t) == 0L)
      }
    }
  }

  test("edges are strictly increasing and cover the data") {
    val rng = new Random(53)
    val xs = Array.fill(3000)(math.rint(rng.nextGaussian() * 200 + 500))
    val dm = build1D(xs, M, xs.length.toLong)
    assert(dm.edges.sliding(2).forall(p => p(0) < p(1)))
    assert(dm.edges.head == xs.min)
    assert(dm.edges.last == xs.max)
  }

  test("empty column yields the degenerate histogram") {
    val dm = build1D(Array.fill(10)(Double.NaN), M, 10)
    assert(dm.k == 1)
    assert(dm.counts(0) == 0)
  }

  test("constant column yields a single exact bin") {
    val dm = build1D(Array.fill(500)(42.0), M, 500)
    assert(dm.k == 1)
    assert(dm.vMin(0) == 42.0 && dm.vMax(0) == 42.0 && dm.unique(0) == 1 && dm.counts(0) == 500)
  }

  test("two-value column keeps exact extrema") {
    val xs = Array.fill(400)(0.0) ++ Array.fill(100)(50.0)
    val dm = build1D(xs, M, 500)
    assert(dm.counts.sum == 500)
    val t0 = DimMeta.binOf(dm.edges, 0.0)
    assert(dm.vMin(t0) == 0.0)
    val t1 = DimMeta.binOf(dm.edges, 50.0)
    assert(dm.vMax(t1) == 50.0)
  }

  test("nulls (NaN) are excluded from 1-d histograms") {
    val rng = new Random(59)
    val xs = Array.tabulate(2000)(i => if (i % 4 == 0) Double.NaN else math.rint(rng.nextDouble() * 100))
    val dm = build1D(xs, M, 2000)
    assert(dm.counts.sum == xs.count(!_.isNaN))
  }

  test("smaller M yields at least as many bins") {
    val rng = new Random(61)
    val xs = Array.fill(8000)(math.rint(math.pow(rng.nextDouble(), 3) * 5000))
    val coarse = build1D(xs, 800, xs.length.toLong)
    val fine = build1D(xs, 80, xs.length.toLong)
    assert(fine.k >= coarse.k)
  }

  test("initial edge seeds are respected and capped at ceil(Ns/M)") {
    val seeds = Array.tabulate(1000)(i => i.toDouble)
    val init = Builder.initialEdgeVector(0.0, 999.0, Some(seeds), nS = 1000, m = 100)
    assert(init.length <= 1000 / 100 + 2)
    assert(init.head == 0.0 && init.last == 999.0)
    assert(init.sliding(2).forall(p => p(0) < p(1)))
  }

  test("initialEdgeVector without seeds is an equal-width grid of ceil(Ns/M) bins") {
    val init = Builder.initialEdgeVector(0.0, 1000.0, None, nS = 1000, m = 100)
    assert(init.length == 11) // 10 bins + 1
    assert(init.head == 0.0 && init.last == 1000.0)
    // Narrow integer domains cap the grid at the domain width.
    val narrow = Builder.initialEdgeVector(1.0, 4.0, None, nS = 1000, m = 10)
    assert(narrow.length <= 5)
    assert(narrow.head == 1.0 && narrow.last == 4.0)
  }

  test("skewed column: bins are refined where data is dense") {
    val rng = new Random(67)
    // Exponential-ish: dense near 0.
    val xs = Array.fill(20000)(math.rint(-math.log(rng.nextDouble() + 1e-12) * 100))
    val dm = build1D(xs, 200, xs.length.toLong)
    assert(dm.k > 3, s"k=${dm.k}")
    // First-half bins should be narrower than last bin.
    val widths = (0 until dm.k).map(t => dm.edges(t + 1) - dm.edges(t))
    assert(widths.head < widths.last)
  }

  test("binIndex handles boundaries: half-open bins, closed last bin") {
    val edges = Array(0.0, 10.0, 20.0)
    assert(DimMeta.binOf(edges, 0.0) == 0)
    assert(DimMeta.binOf(edges, 9.999) == 0)
    assert(DimMeta.binOf(edges, 10.0) == 1)
    assert(DimMeta.binOf(edges, 20.0) == 1) // closed top
    assert(DimMeta.binOf(edges, -5.0) == 0) // clamped
    assert(DimMeta.binOf(edges, 25.0) == 1) // clamped
  }

  test("lowerBound/upperBound are standard binary searches") {
    val xs = Array(1.0, 2.0, 2.0, 5.0, 9.0)
    assert(Builder.lowerBound(xs, 2.0) == 1)
    assert(Builder.upperBound(xs, 2.0) == 3)
    assert(Builder.lowerBound(xs, 0.0) == 0)
    assert(Builder.upperBound(xs, 9.0) == 5)
    assert(Builder.lowerBound(xs, 10.0) == 5)
  }

  // ----------------------------------------------------------------- 2-d ----

  test("2-d histogram marginals match the pair row count") {
    val rng = new Random(71)
    val n = 8000
    val xi = Array.fill(n)(math.rint(rng.nextDouble() * 1000))
    val xj = Array.tabulate(n)(r => math.rint(xi(r) * 0.5 + rng.nextDouble() * 50))
    val e1i = build1D(xi, M, n).edges
    val e1j = build1D(xj, M, n).edges
    val h2 = build2D(xi, xj, e1i, e1j, M)
    val total = h2.counts.map(_.sum).sum
    assert(total == n)
    assert(h2.metaI.counts.sum == n)
    assert(h2.metaJ.counts.sum == n)
    // Row sums equal the marginal counts along i.
    for (t <- 0 until h2.metaI.k) assert(h2.counts(t).sum == h2.metaI.counts(t))
  }

  test("2-d refinement adds edges for correlated data") {
    val rng = new Random(73)
    val n = 20000
    val xi = Array.fill(n)(math.rint(rng.nextDouble() * 1000))
    val xj = Array.tabulate(n)(r => math.rint(xi(r) + rng.nextDouble() * 10)) // strongly dependent
    val e1i = build1D(xi, 500, n).edges
    val e1j = build1D(xj, 500, n).edges
    val h2 = build2D(xi, xj, e1i, e1j, 500)
    assert(h2.metaI.k + h2.metaJ.k >= (e1i.length - 1) + (e1j.length - 1))
  }

  test("2-d edges refine the 1-d edges (splits only add)") {
    val rng = new Random(79)
    val n = 10000
    val xi = Array.fill(n)(math.rint(rng.nextDouble() * 300))
    val xj = Array.fill(n)(math.rint(math.pow(rng.nextDouble(), 2) * 300))
    val mi = build1D(xi, 200, n)
    val mj = build1D(xj, 200, n)
    val h2 = build2D(xi, xj, mi.edges, mj.edges, 200)
    assert(mi.edges.toSet.subsetOf(h2.metaI.edges.toSet))
    assert(mj.edges.toSet.subsetOf(h2.metaJ.edges.toSet))
  }

  test("rows with a null in either column are excluded from the pair") {
    val rng = new Random(83)
    val n = 4000
    val xi = Array.tabulate(n)(r => if (r % 5 == 0) Double.NaN else math.rint(rng.nextDouble() * 100))
    val xj = Array.tabulate(n)(r => if (r % 7 == 0) Double.NaN else math.rint(rng.nextDouble() * 100))
    val mi = build1D(xi, M, n)
    val mj = build1D(xj, M, n)
    val h2 = build2D(xi, xj, mi.edges, mj.edges, M)
    val expect = (0 until n).count(r => !xi(r).isNaN && !xj(r).isNaN)
    assert(h2.counts.map(_.sum).sum == expect)
  }

  // ------------------------------------------------------------- assembly ----

  test("build assembles all pairs and 1-d histograms") {
    val rng = new Random(89)
    val n = 3000
    val sample = Array(
      Array.fill(n)(math.rint(rng.nextDouble() * 100)),
      Array.fill(n)(math.rint(rng.nextDouble() * 50)),
      Array.fill(n)(math.rint(rng.nextDouble() * 10))
    )
    val ph = Builder.build(sample, Array(spec("a"), spec("b"), spec("c")), n * 10L, 50, Alpha)
    assert(ph.d == 3)
    assert(ph.hist2d.keySet == Set((1, 0), (2, 0), (2, 1)))
    assert(ph.pair(0, 1).nonEmpty && ph.pair(1, 0).nonEmpty)
    assert(ph.rho == n.toDouble / (n * 10L))
    assert(ph.hist1d.forall(_.meta.counts.sum == n))
  }

  test("parents maps refined pair bins onto 1-d bins") {
    val rng = new Random(97)
    val n = 10000
    val sample = Array(
      Array.fill(n)(math.rint(rng.nextDouble() * 1000)),
      Array.tabulate(n)(r => math.rint(r.toDouble % 1000))
    )
    val ph = Builder.build(sample, Array(spec("a"), spec("b")), n.toLong, 200, Alpha)
    val pairH = ph.pair(1, 0).get
    val pm = pairH.metaI.parents(ph.hist1d(1).meta)
    assert(pm.length == pairH.metaI.k)
    assert(pm.forall(t => t >= 0 && t < ph.hist1d(1).k))
    // Parent assignment is monotone non-decreasing over refined bins.
    assert(pm.sliding(2).forall(p => p.length < 2 || p(0) <= p(1)))
  }

  test("a ragged sample is rejected") {
    val specs = Array(spec("a"), spec("b"))
    for (ragged <- Seq(Array(Array(1.0, 2.0, 3.0), Array(1.0, 2.0)), Array(Array(1.0, 2.0), Array(1.0, 2.0, 3.0))))
      intercept[IllegalArgumentException](Builder.build(ragged, specs, 10L, 1, Alpha))
    intercept[IllegalArgumentException](
      Builder.buildWeighted(Array(Array(1.0, 2.0), Array(3.0, 4.0)), Array(1L), specs, 10L, 1, Alpha, Map.empty))
  }
}
