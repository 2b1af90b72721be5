package repro.core

import org.scalatest.funsuite.AnyFunSuite

class CoverageSpec extends AnyFunSuite {

  private val Inf = IntervalSet.PosInf

  test("ofCond normalises strict inequalities to closed integer intervals") {
    assert(IntervalSet.ofCond(Op.Lt, 5.0).ivs == List((-Inf, 4.0)))
    assert(IntervalSet.ofCond(Op.Le, 5.0).ivs == List((-Inf, 5.0)))
    assert(IntervalSet.ofCond(Op.Gt, 5.0).ivs == List((6.0, Inf)))
    assert(IntervalSet.ofCond(Op.Ge, 5.0).ivs == List((5.0, Inf)))
    assert(IntervalSet.ofCond(Op.Eq, 5.0).ivs == List((5.0, 5.0)))
    assert(IntervalSet.ofCond(Op.Ne, 5.0).ivs == List((-Inf, 4.0), (6.0, Inf)))
  }

  test("ofCond with fractional literal keeps integer semantics") {
    // x < 4.5 over integers == x <= 4
    assert(IntervalSet.ofCond(Op.Lt, 4.5).ivs == List((-Inf, 4.0)))
    // x > 4.5 == x >= 5
    assert(IntervalSet.ofCond(Op.Gt, 4.5).ivs == List((5.0, Inf)))
    // x = 4.5 matches nothing, x != 4.5 matches everything
    assert(IntervalSet.ofCond(Op.Eq, 4.5).isEmpty)
    assert(IntervalSet.ofCond(Op.Ne, 4.5) == IntervalSet.full)
  }

  test("intersection and union of interval sets") {
    val a = IntervalSet.ofCond(Op.Ge, 10.0) // [10, inf)
    val b = IntervalSet.ofCond(Op.Le, 20.0) // (-inf, 20]
    assert(a.intersect(b).ivs == List((10.0, 20.0)))
    val c = IntervalSet(List((0.0, 5.0)))
    val d = IntervalSet(List((3.0, 9.0)))
    assert(c.union(d).ivs == List((0.0, 9.0)))
    assert(c.intersect(d).ivs == List((3.0, 5.0)))
  }

  test("union merges integer-adjacent intervals") {
    val u = IntervalSet(List((0.0, 4.0))).union(IntervalSet(List((5.0, 9.0))))
    assert(u.ivs == List((0.0, 9.0)))
  }

  test("empty intersection") {
    val a = IntervalSet(List((0.0, 3.0)))
    val b = IntervalSet(List((10.0, 12.0)))
    assert(a.intersect(b).isEmpty)
  }

  test("overlapPoints counts integer points") {
    val s = IntervalSet(List((2.0, 5.0), (8.0, 8.0)))
    assert(s.overlapPoints(0, 10) == 5.0) // {2,3,4,5} + {8}
    assert(s.overlapPoints(3, 4) == 2.0)
    assert(s.overlapPoints(9, 20) == 0.0)
  }

  test("binCoverage: no overlap is 0, full cover is 1") {
    val set = IntervalSet(List((0.0, 100.0)))
    assert(Coverage.binCoverage(set, 10, 50, 20) == 1.0)
    val none = IntervalSet(List((200.0, 300.0)))
    assert(Coverage.binCoverage(none, 10, 50, 20) == 0.0)
  }

  test("binCoverage: equality inside the bin is 1/u (Eq 15)") {
    val set = IntervalSet(List((25.0, 25.0)))
    assert(Coverage.binCoverage(set, 10, 50, 20) == 1.0 / 20)
  }

  test("binCoverage: equality at a value outside [vMin, vMax] is 0") {
    val set = IntervalSet(List((60.0, 60.0)))
    assert(Coverage.binCoverage(set, 10, 50, 20) == 0.0)
  }

  test("binCoverage: u = 2 cases give 0, 0.5, 1 (Eq 16)") {
    // bin holds exactly values {10, 50}
    val coverLow = IntervalSet(List((-Inf, 10.0)))
    val coverBoth = IntervalSet(List((-Inf, 50.0)))
    val coverNone = IntervalSet(List((20.0, 40.0)))
    assert(Coverage.binCoverage(coverLow, 10, 50, 2) == 0.5)
    assert(Coverage.binCoverage(coverBoth, 10, 50, 2) == 1.0)
    assert(Coverage.binCoverage(coverNone, 10, 50, 2) == 0.0)
  }

  test("binCoverage: u = 1 is 0 or 1") {
    assert(Coverage.binCoverage(IntervalSet(List((5.0, 15.0))), 10, 10, 1) == 1.0)
    assert(Coverage.binCoverage(IntervalSet(List((11.0, 15.0))), 10, 10, 1) == 0.0)
  }

  test("binCoverage: range overlap is a fraction of the span") {
    // bin [0, 99] with 100 uniques; condition x <= 49 covers half.
    val set = IntervalSet.ofCond(Op.Le, 49.0)
    val f = Coverage.binCoverage(set, 0, 99, 100)
    assert(math.abs(f - 0.5) < 0.01, s"f=$f")
  }

  test("coverage vector has lo <= est <= hi per bin") {
    val meta = DimMeta(
      edges = Array(0.0, 50.0, 100.0),
      vMin = Array(0.0, 50.0),
      vMax = Array(49.0, 99.0),
      unique = Array(50L, 50L),
      counts = Array(500L, 500L)
    )
    val set = IntervalSet.ofCond(Op.Le, 30.0)
    val v = Coverage.coverage(set, meta, m = 100, alpha = 0.001)
    for (t <- 0 until meta.k) {
      assert(v.lo(t) <= v.est(t) + 1e-12, s"bin $t")
      assert(v.est(t) <= v.hi(t) + 1e-12, s"bin $t")
      assert(v.lo(t) >= 0 && v.hi(t) <= 1)
    }
    assert(v.est(1) == 0.0) // second bin entirely above 30
    assert(v.est(0) > 0.5 && v.est(0) < 0.75)
  }

  test("complement consistency: cov(P) + cov(not P) ~ 1 for ranges") {
    val le = IntervalSet.ofCond(Op.Le, 30.0)
    val gt = IntervalSet.ofCond(Op.Gt, 30.0)
    val c1 = Coverage.binCoverage(le, 0, 99, 100)
    val c2 = Coverage.binCoverage(gt, 0, 99, 100)
    assert(math.abs(c1 + c2 - 1.0) < 0.02, s"$c1 + $c2")
  }

  test("sparse holds maximal runs of exact bins and the ascending fractional bins, with bounds") {
    // Ten bins of width 10, [10t, 10t + 9], each with 10 uniques.
    val meta = DimMeta(
      edges = Array.tabulate(11)(t => 10.0 * t),
      vMin = Array.tabulate(10)(t => 10.0 * t),
      vMax = Array.tabulate(10)(t => 10.0 * t + 9),
      unique = Array.fill(10)(10L),
      counts = Array.fill(10)(100L)
    )
    val sets = Seq(
      IntervalSet.ofCond(Op.Gt, 34.0),                               // fractional, then ones
      IntervalSet.ofCond(Op.Ne, 55.0),                               // ones, fractional, ones
      IntervalSet(List((0.0, 19.0), (25.0, 25.0), (40.0, 59.0))),    // two runs around a point
      IntervalSet.ofCond(Op.Eq, 200.0)                               // nothing
    )
    for (set <- sets) {
      val sv = Coverage.sparse(set, meta, m = 10, alpha = 0.001)
      val runs = (0 until sv.nRuns).map(r => (sv.runLo(r), sv.runHi(r)))
      val frac = (0 until sv.nFrac).map(sv.at)
      val want = (0 until meta.k).map(t => Coverage.binCoverage(set, meta.vMin(t), meta.vMax(t), meta.unique(t)))
      assert(runs.flatMap { case (a, b) => a until b } == want.indices.filter(want(_) == 1.0), s"$set")
      assert(runs.forall { case (a, b) => a < b }, s"$set")
      assert(runs.zip(runs.drop(1)).forall { case ((_, b), (a, _)) => b < a }, s"$set: runs not maximal")
      assert(frac == want.indices.filter(t => want(t) != 0.0 && want(t) != 1.0), s"$set")
      for (q <- frac.indices) {
        val (lo, hi) = Theorems.coverageBounds(want(frac(q)), 100L, 10L, 10L, 0.001)
        assert((sv.est(q), sv.lo(q), sv.hi(q)) == ((want(frac(q)), lo, hi)), s"$set bin ${frac(q)}")
      }
    }
  }
}
