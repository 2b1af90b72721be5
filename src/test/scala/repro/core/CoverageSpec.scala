package repro.core

import org.scalacheck.{Gen, Prop, Test}
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

  // ------------------------------------- sparse against every-bin reference ----

  /** Metadata over 1–12 bins whose edges may be fractional and whose bins
    * may be empty (extrema on the edges, as the builders leave them); every
    * non-empty bin holds its data within its own edges, as the engine
    * requires.
    */
  private val metaGen: Gen[DimMeta] = for {
    k <- Gen.choose(1, 12)
    start <- Gen.choose(-30, 30)
    startFrac <- Gen.oneOf(0.0, 0.5, 0.25)
    widths <- Gen.listOfN(k, Gen.oneOf(Gen.choose(1, 25).map(_.toDouble), Gen.oneOf(0.5, 1.5, 2.5, 3.75)))
    picks <- Gen.listOfN(k, for {
      empty <- Gen.frequency(1 -> true, 3 -> false)
      a <- Gen.choose(0.0, 1.0)
      b <- Gen.choose(0.0, 1.0)
      u <- Gen.choose(0.0, 1.0)
      c <- Gen.choose(0L, 500L)
    } yield (empty, a, b, u, c))
  } yield {
    val edges = widths.scanLeft(start + startFrac)(_ + _).toArray
    val vMin = new Array[Double](k)
    val vMax = new Array[Double](k)
    val unique = new Array[Long](k)
    val counts = new Array[Long](k)
    for (t <- 0 until k) {
      val (empty, a, b, u, c) = picks(t)
      // The integers of [edges(t), edges(t + 1)), closed for the last bin.
      val first = math.ceil(edges(t))
      val last = if (t == k - 1) math.floor(edges(t + 1)) else math.ceil(edges(t + 1)) - 1
      if (empty || first > last) { vMin(t) = edges(t); vMax(t) = edges(t + 1) }
      else {
        val x = first + math.floor(a * (last - first + 1)).min(last - first)
        val y = first + math.floor(b * (last - first + 1)).min(last - first)
        vMin(t) = math.min(x, y); vMax(t) = math.max(x, y)
        val span = (vMax(t) - vMin(t)).toLong
        unique(t) = if (span == 0) 1L else 2L + math.floor(u * span).toLong.min(span - 1)
        counts(t) = unique(t) + c
      }
    }
    DimMeta(edges, vMin, vMax, unique, counts)
  }

  /** A literal for `meta`: an edge, a bin's extremum, one either side of
    * them, a point inside a bin, a fraction, or a value beyond the edges.
    */
  private def literalGen(meta: DimMeta): Gen[Double] = {
    val k = meta.k
    Gen.choose(0, k - 1).flatMap { t =>
      Gen.oneOf(
        Gen.const(meta.edges(t)), Gen.const(meta.edges(t + 1)),
        Gen.const(meta.vMin(t)), Gen.const(meta.vMax(t)),
        Gen.oneOf(meta.vMin(t) - 1, meta.vMax(t) + 1, meta.edges(t) - 1, meta.edges(t + 1) + 1),
        Gen.choose(meta.vMin(t), meta.vMax(t)).map(math.rint),
        Gen.choose(meta.edges(0) - 5, meta.edges(k) + 5).map(x => math.floor(x * 4) / 4),
        Gen.oneOf(meta.edges(0) - 40, meta.edges(k) + 40, IntervalSet.NegInf, IntervalSet.PosInf)
      )
    }
  }

  /** An interval set as the engine builds one: one to four conditions on
    * literals of `meta`, intersected or united, so points, `<>`, several
    * intervals in one bin and the empty and full sets all occur.
    */
  private def setGen(meta: DimMeta): Gen[IntervalSet] = for {
    n <- Gen.choose(1, 4)
    conds <- Gen.listOfN(n, for {
      op <- Gen.oneOf(Op.Lt, Op.Le, Op.Gt, Op.Ge, Op.Eq, Op.Ne)
      v <- literalGen(meta)
    } yield IntervalSet.ofCond(op, v))
    and <- Gen.oneOf(true, false)
  } yield conds.reduce((x, y) => if (and) x intersect y else x union y)

  test("sparse equals the per-bin binCoverage reference, with maximal runs and ascending fractional bins") {
    val gen = for {
      meta <- metaGen
      set <- setGen(meta)
      m <- Gen.oneOf(1L, 20L, 200L)
    } yield (meta, set, m)
    val prop = Prop.forAllNoShrink(gen) { case (meta, set, m) =>
      val sv = Coverage.sparse(set, meta, m, 0.001)
      val want = (0 until meta.k).map(t => Coverage.binCoverage(set, meta.vMin(t), meta.vMax(t), meta.unique(t)))
      val runs = (0 until sv.nRuns).map(r => (sv.runLo(r), sv.runHi(r)))
      val frac = (0 until sv.nFrac).map(sv.at)
      val wantFrac = want.indices.filter(t => want(t) != 0.0 && want(t) != 1.0)
      val boundsOk = frac.indices.forall { q =>
        val t = frac(q)
        val (lo, hi) = Theorems.coverageBounds(want(t), meta.counts(t), meta.unique(t), m, 0.001)
        sv.est(q) == want(t) && sv.lo(q) == lo && sv.hi(q) == hi
      }
      Prop(
        sv.k == meta.k &&
          runs.flatMap { case (a, b) => a until b } == want.indices.filter(want(_) == 1.0) &&
          runs.forall { case (a, b) => a < b } &&
          runs.zip(runs.drop(1)).forall { case ((_, b), (a, _)) => b < a } &&
          frac == wantFrac && boundsOk
      ) :| s"set ${set.ivs}; edges ${meta.edges.mkString(",")}; vMin ${meta.vMin.mkString(",")}; " +
        s"vMax ${meta.vMax.mkString(",")}; unique ${meta.unique.mkString(",")}; want ${want.mkString(",")}; " +
        s"runs $runs; frac $frac"
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(3000).withInitialSeed(15L), prop)
    assert(res.passed, res.status.toString)
  }
}
