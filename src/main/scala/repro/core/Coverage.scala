package repro.core

import repro.gd.ColumnSpec

/** Closed integer intervals over the GD domain and predicate coverage
  * estimation (§5.2).
  *
  * Because GD-domain values are integers, every condition normalises to a
  * union of closed intervals: `x < v` becomes `[-inf, v-1]`, `x != v`
  * becomes `[-inf, v-1] ∪ [v+1, +inf]`, etc. Same-column condition groups
  * (the paper's "delayed transformation" consolidation) are then plain
  * interval intersections/unions.
  */
final case class IntervalSet(ivs: List[(Double, Double)]) {
  // invariant: sorted, disjoint, non-adjacent (gap >= 1 in integer domain)

  def isEmpty: Boolean = ivs.isEmpty

  def union(other: IntervalSet): IntervalSet =
    IntervalSet.normalise(ivs ++ other.ivs)

  def intersect(other: IntervalSet): IntervalSet = {
    val out = for {
      (a1, b1) <- ivs
      (a2, b2) <- other.ivs
      lo = math.max(a1, a2)
      hi = math.min(b1, b2)
      if lo <= hi
    } yield (lo, hi)
    IntervalSet.normalise(out)
  }

  def contains(x: Double): Boolean = ivs.exists { case (a, b) => x >= a && x <= b }

  /** Total overlap measure with [lo, hi] counting integer points. */
  def overlapPoints(lo: Double, hi: Double): Double = {
    // Summed left to right in a loop: this runs once per bin per query.
    var s = 0.0
    var rest = ivs
    while (rest.nonEmpty) {
      val iv = rest.head
      val l = math.max(iv._1, lo); val h = math.min(iv._2, hi)
      if (l <= h) s += h - l + 1
      rest = rest.tail
    }
    s
  }
}

object IntervalSet {
  val NegInf: Double = -1e18
  val PosInf: Double = 1e18

  val empty: IntervalSet = IntervalSet(Nil)
  val full: IntervalSet = IntervalSet(List((NegInf, PosInf)))

  def normalise(raw: List[(Double, Double)]): IntervalSet = {
    val sorted = raw.filter { case (a, b) => a <= b }.sortBy(_._1)
    val merged = sorted.foldLeft(List.empty[(Double, Double)]) {
      case (Nil, iv) => List(iv)
      case ((a, b) :: rest, (a2, b2)) =>
        if (a2 <= b + 1) (a, math.max(b, b2)) :: rest // adjacent integers merge
        else (a2, b2) :: (a, b) :: rest
    }
    IntervalSet(merged.reverse)
  }

  /** Normalise a single GD-domain condition to an interval set. The GD
    * value `v` may be fractional when a literal falls between domain values
    * (e.g. a raw-domain literal that does not scale to an exact integer);
    * floors/ceils keep the semantics exact over integers.
    */
  def ofCond(op: Op, v: Double): IntervalSet = op match {
    case Op.Lt => IntervalSet(List((NegInf, math.ceil(v) - 1)))
    case Op.Le => IntervalSet(List((NegInf, math.floor(v))))
    case Op.Gt => IntervalSet(List((math.floor(v) + 1, PosInf)))
    case Op.Ge => IntervalSet(List((math.ceil(v), PosInf)))
    case Op.Eq =>
      if (v == math.rint(v)) IntervalSet(List((v, v))) else empty
    case Op.Ne =>
      if (v == math.rint(v)) normalise(List((NegInf, v - 1), (v + 1, PosInf))) else full
  }

  /** §5.1 literal transformation: condition `c`, whose literal is in the
    * original domain, as a GD-domain interval set of its column `spec`.
    */
  def ofCond(c: Cond, spec: ColumnSpec): IntervalSet = ofCond(c.op, spec.toGd(c.value))
}

/** Coverage (Eq 14): per-bin probability that a point satisfies a predicate
  * condition set, plus bounds (Eqs 15–16, 22–23).
  */
object Coverage {

  /** A per-bin estimate with its lower and upper bounds. */
  final case class Vec(est: Array[Double], lo: Array[Double], hi: Array[Double]) {
    /** Eq 25: the element-wise product with `that`, estimate with estimate
      * and bound with bound (bounds are monotone in each factor).
      */
    def and(that: Vec): Vec = {
      // Plain loops with the arithmetic written in: one shared loop taking
      // it as a function argument read slower on scalar queries.
      def z(x: Array[Double], y: Array[Double]) = {
        val r = new Array[Double](x.length)
        var t = 0
        while (t < r.length) { r(t) = x(t) * y(t); t += 1 }
        r
      }
      Vec(z(est, that.est), z(lo, that.lo), z(hi, that.hi))
    }

    /** Eq 26: the element-wise union `1 - (1 - x)(1 - y)` with `that`. */
    def or(that: Vec): Vec = {
      def z(x: Array[Double], y: Array[Double]) = {
        val r = new Array[Double](x.length)
        var t = 0
        while (t < r.length) { r(t) = 1.0 - (1.0 - x(t)) * (1.0 - y(t)); t += 1 }
        r
      }
      Vec(z(est, that.est), z(lo, that.lo), z(hi, that.hi))
    }
  }

  /** A coverage vector over `k` bins in sparse form: the runs
    * `[runLo(r), runHi(r))`, `r < nRuns`, of bins covered exactly (1.0),
    * then the fractional bins `at(q)`, `q < nFrac`, ascending, with their
    * estimates and bounds. Every other bin is 0. An exact bin is its own
    * bound, so the estimate and both bounds share the runs and the zeros.
    */
  final class SparseVec(
      val k: Int,
      val runLo: Array[Int], val runHi: Array[Int], val nRuns: Int,
      val at: Array[Int], val est: Array[Double], val lo: Array[Double], val hi: Array[Double], val nFrac: Int
  ) {
    /** The same vector with every bin written out. */
    def dense: Vec = {
      val e = new Array[Double](k)
      val l = new Array[Double](k)
      val h = new Array[Double](k)
      var r = 0
      while (r < nRuns) {
        var t = runLo(r)
        while (t < runHi(r)) { e(t) = 1.0; l(t) = 1.0; h(t) = 1.0; t += 1 }
        r += 1
      }
      var q = 0
      while (q < nFrac) { e(at(q)) = est(q); l(at(q)) = lo(q); h(at(q)) = hi(q); q += 1 }
      Vec(e, l, h)
    }
  }

  /** Coverage of `set` over every bin of `meta`, with bounds.
    *
    * Eq 15/16 case analysis per bin with extrema [vMin, vMax], u uniques:
    *  - no overlap with [vMin, vMax]           -> 0
    *  - set covers all integer points of bin   -> 1
    *  - u == 1                                 -> 0/1 (above)
    *  - u == 2                                 -> (#extrema covered)/2
    *  - point (equality) overlap only          -> (#points covered)/u
    *  - otherwise                              -> covered fraction of span
    *
    * Only the bins that hold an end of an interval of `set` go through that
    * analysis ([[binCoverage]]), each once, against the whole set; only the
    * fractional ones get bounds (Eqs 22–23). The search relies on every
    * non-empty bin `t` holding its data within its own edges,
    * `binOf(edges, vMin(t)) == t == binOf(edges, vMax(t))` (checked by
    * `new Engine`): then a bin strictly between the ends of one interval
    * lies inside it, so it is 1 if it holds data and 0 if it is empty, and
    * a bin beyond every interval's end bins is 0 and never visited.
    */
  def sparse(set: IntervalSet, meta: DimMeta, m: Long, alpha: Double): SparseVec = {
    val k = meta.k
    val edges = meta.edges
    // Each interval has at most two end bins, so at most two fractional bins.
    val cap = math.min(k, 2 * set.ivs.length)
    val runLo = new Array[Int]((k + 1) / 2)
    val runHi = new Array[Int]((k + 1) / 2)
    val at = new Array[Int](cap)
    val est = new Array[Double](cap)
    val lo = new Array[Double](cap)
    val hi = new Array[Double](cap)
    var nRuns = 0
    var nFrac = 0
    var next = 0 // every bin below has been emitted
    var rest = set.ivs
    while (rest.nonEmpty) {
      val tA = DimMeta.binOf(edges, rest.head._1)
      val tB = DimMeta.binOf(edges, rest.head._2)
      // A bin an earlier interval ends in was evaluated against the whole set.
      var t = math.max(tA, next)
      while (t <= tB) {
        val b =
          if (t == tA || t == tB) binCoverage(set, meta.vMin(t), meta.vMax(t), meta.unique(t))
          else if (meta.unique(t) > 0) 1.0
          else 0.0
        if (b == 1.0) {
          if (nRuns > 0 && runHi(nRuns - 1) == t) runHi(nRuns - 1) = t + 1
          else { runLo(nRuns) = t; runHi(nRuns) = t + 1; nRuns += 1 }
        } else if (b != 0.0) {
          val (bl, bh) = Theorems.coverageBounds(b, meta.counts(t), meta.unique(t), m, alpha)
          at(nFrac) = t; est(nFrac) = b; lo(nFrac) = bl; hi(nFrac) = bh
          nFrac += 1
        }
        t += 1
      }
      next = tB + 1
      rest = rest.tail
    }
    new SparseVec(k, runLo, runHi, nRuns, at, est, lo, hi, nFrac)
  }

  /** [[sparse]] with every bin written out. */
  def coverage(set: IntervalSet, meta: DimMeta, m: Long, alpha: Double): Vec =
    sparse(set, meta, m, alpha).dense

  /** Estimated coverage of one bin (no bounds). */
  def binCoverage(set: IntervalSet, vMin: Double, vMax: Double, u: Long): Double = {
    if (u <= 0) return 0.0
    val span = vMax - vMin
    val overlap = set.overlapPoints(vMin, vMax)
    if (overlap <= 0) 0.0
    else if (overlap >= span + 1) 1.0 // all integer points covered
    else {
      // One pass over the intervals: whether each extremum is covered, and
      // whether the overlap is single points only and how many there are.
      var hasMin = false
      var hasMax = false
      var pointOnly = true
      var pts = 0
      var rest = set.ivs
      while (rest.nonEmpty) {
        val iv = rest.head
        val a = iv._1; val b = iv._2
        if (a <= vMin && vMin <= b) hasMin = true
        if (a <= vMax && vMax <= b) hasMax = true
        if (a == b) { if (a >= vMin && a <= vMax) pts += 1 }
        else if (!(b < vMin || a > vMax)) pointOnly = false
        rest = rest.tail
      }
      if (u == 1) { if (hasMin) 1.0 else 0.0 }
      else if (u == 2) ((if (hasMin) 1 else 0) + (if (hasMax) 1 else 0)) / 2.0
      // Pure single-point (equality) overlap is better served by 1/u (Eq 15).
      else if (pointOnly && pts > 0) math.min(1.0, pts.toDouble / u)
      // Mixed point/range overlap: fraction of the bin's integer span. This
      // is the paper's f_t(P) with the span measured over [vMin, vMax].
      else math.min(1.0, math.max(0.0, overlap / (span + 1)))
    }
  }
}
