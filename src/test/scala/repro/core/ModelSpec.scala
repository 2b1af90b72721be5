package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.gd.{ColumnSpec, NumericCol}

class ModelSpec extends AnyFunSuite {

  private val meta = DimMeta(
    edges = Array(0.0, 10.0, 20.0, 40.0),
    vMin = Array(0.0, 10.0, 21.0),
    vMax = Array(9.0, 19.0, 39.0),
    unique = Array(10L, 10L, 19L),
    counts = Array(100L, 50L, 200L)
  )

  test("DimMeta validates array shapes") {
    intercept[IllegalArgumentException] {
      DimMeta(Array(0.0, 1.0), Array(0.0, 0.0), Array(1.0), Array(1L), Array(1L))
    }
  }

  test("binOf finds the containing bin with clamping") {
    def binOf(x: Double): Int = DimMeta.binOf(meta.edges, x)
    assert(binOf(0.0) == 0)
    assert(binOf(9.99) == 0)
    assert(binOf(10.0) == 1)
    assert(binOf(39.0) == 2)
    assert(binOf(40.0) == 2)
    assert(binOf(1e9) == 2)
    assert(binOf(-5.0) == 0)
  }

  test("midpoints derive from vMin/vMax, not edges") {
    assert(meta.midpoints.toSeq == Seq(4.5, 14.5, 30.0))
  }

  test("centreBounds stay within [vMin, vMax] per bin") {
    val (lo, hi) = meta.centreBounds(m = 60, alpha = 0.001)
    for (t <- 0 until meta.k) {
      assert(lo(t) >= meta.vMin(t) - 1e-12, s"bin $t")
      assert(hi(t) <= meta.vMax(t) + 1e-12, s"bin $t")
      assert(lo(t) <= hi(t), s"bin $t")
    }
  }

  test("PairwiseHist pair lookup is order-insensitive; columnIndex validates") {
    val spec = (n: String) => ColumnSpec(n, NumericCol(1, 0), 0)
    val h1 = Array.tabulate(2)(i => Hist1D(i, meta))
    val h2 = Map((1, 0) -> Hist2D(1, 0, meta, meta, Array.fill(3)(Array.fill(3)(1L))))
    val ph = PairwiseHist(1000, 100, 10, 0.001, Array(spec("a"), spec("b")), h1, h2, Array(0L, 0L))
    assert(ph.pair(0, 1).nonEmpty && ph.pair(1, 0).nonEmpty)
    assert(ph.pair(0, 1).get eq ph.pair(1, 0).get)
    assert(ph.columnIndex("b") == 1)
    intercept[IllegalArgumentException](ph.columnIndex("zzz"))
    // A repeated name resolves to its first column, as indexWhere finds it.
    assert(ph.copy(specs = Array(spec("b"), spec("b"))).columnIndex("b") == 0)
    assert(ph.rho == 0.1)
    assert(ph.d == 2)
  }

  private val oneD = DimMeta(Array(0.0, 20.0, 40.0), Array(0.0, 21.0), Array(19.0, 39.0), Array(5L, 4L), Array(10L, 10L))
  private val refined = DimMeta(
    edges = Array(0.0, 10.0, 20.0, 40.0),
    vMin = Array(0.0, 10.0, 20.0), vMax = Array(9.0, 19.0, 39.0),
    unique = Array(3L, 3L, 5L), counts = Array(5L, 5L, 10L)
  )

  test("parents maps refined bins to their 1-d parents") {
    assert(refined.parents(oneD).toSeq == Seq(0, 0, 1))
  }

  test("sharedBins shares a coinciding bin and not a split one") {
    // 1-d bin 0 was split into [0,10) and [10,20); 1-d bin 1 = [20,40] was not.
    assert(refined.sharedBins(oneD).toSeq == Seq(-1, -1, 1))
    val shared = refined.shareWith(oneD)
    assert(shared.vMin.toSeq == Seq(0.0, 10.0, 21.0))
    assert(shared.vMax.toSeq == Seq(9.0, 19.0, 39.0))
    assert(shared.unique.toSeq == Seq(3L, 3L, 4L))
    assert(shared.counts.toSeq == refined.counts.toSeq)
  }

  test("withMarginals sets row and column sums as the pair's marginal counts") {
    val h2 = Hist2D.withMarginals(1, 0, refined, oneD, Array(Array(1L, 2L), Array(0L, 3L), Array(4L, 0L)))
    assert(h2.metaI.counts.toSeq == Seq(3L, 3L, 4L))
    assert(h2.metaJ.counts.toSeq == Seq(5L, 5L))
    assert(h2.metaI.edges.toSeq == refined.edges.toSeq && h2.metaJ.vMin.toSeq == oneD.vMin.toSeq)
  }
}
