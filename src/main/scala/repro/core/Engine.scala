package repro.core

import repro.gd.{CategoricalCol, ColumnSpec}

/** Approximate result with deterministic-style bounds (Table 3). */
final case class AqpResult(estimate: Double, lo: Double, hi: Double) {
  def contains(truth: Double): Boolean = truth >= lo && truth <= hi
  def width: Double = hi - lo
}

/** PairwiseHist query execution (§5).
  *
  * Pipeline per query: transform predicate literals into the GD domain
  * (§5.1), consolidate same-column condition groups into interval sets
  * (delayed transformation, §5.2), compute per-bin coverage + bounds
  * (Eqs 14–16, 22–23), turn coverages into aggregation-column bin
  * weightings via the pair-histogram matrix products (Eqs 27–28), widen for
  * sampling (Eq 29), then evaluate the aggregation (Table 3).
  */
final class Engine(ph: PairwiseHist) {

  private val z98 = 2.3263478740408408 // two-sided 98% normal quantile

  // Weighted-centre bounds (Eq 10) are query-independent; cache per column
  // so the per-query work stays at the paper's few-matrix-multiplications.
  private val centreBoundsCache: Array[(Array[Double], Array[Double])] =
    Array.tabulate(ph.d)(i => ph.hist1d(i).meta.centreBounds(ph.m, ph.alpha))

  /** A pair histogram seen from its aggregation column: `pred` is the
    * predicate dimension, `cum` its prefix sums in [[Engine.prefixSums]]'s
    * predicate-edge-major layout (entry `tp * kAgg + ta` is the sum of the
    * first `tp` cells of aggregation bin `ta`), and `parent` maps each
    * aggregation-dimension bin to its 1-d bin.
    */
  private final class PairView(val pred: DimMeta, val cum: Array[Long], val parent: Array[Int])

  // Coverage.sparse searches bins by their edges; that needs every bin's
  // data within its own edges. Decoded bytes are input, so check it here.
  ph.hist1d.foreach(h => Engine.requireDataWithinEdges(h.meta, s"1-d histogram of ${ph.specs(h.col).name}"))
  ph.hist2d.valuesIterator.foreach { h =>
    val pair = s"pair (${ph.specs(h.colI).name}, ${ph.specs(h.colJ).name})"
    Engine.requireDataWithinEdges(h.metaI, s"$pair, dimension ${ph.specs(h.colI).name}")
    Engine.requireDataWithinEdges(h.metaJ, s"$pair, dimension ${ph.specs(h.colJ).name}")
  }

  // One view per (aggregation column i, predicate column j), at i * d + j;
  // the stored matrix's rows are column I's bins. Built once, so the engine
  // holds no mutable state and can be shared across threads.
  private val views: Array[PairView] = {
    val v = new Array[PairView](ph.d * ph.d)
    ph.hist2d.valuesIterator.foreach { h =>
      v(h.colI * ph.d + h.colJ) = new PairView(
        h.metaJ, Engine.prefixSums(h.counts, h.metaJ.k, aggOnRows = true), h.metaI.parents(ph.hist1d(h.colI).meta))
      v(h.colJ * ph.d + h.colI) = new PairView(
        h.metaI, Engine.prefixSums(h.counts, h.metaJ.k, aggOnRows = false), h.metaJ.parents(ph.hist1d(h.colJ).meta))
    }
    v
  }

  def run(q: Query): Option[AqpResult] = {
    require(q.groupBy.isEmpty, "use runGroupBy for GROUP BY queries")
    val i = ph.columnIndex(q.aggCol)
    answer(q, i, q.where)
  }

  /** GROUP BY over a categorical column (§3): each group value adds an
    * equality condition to the WHERE.
    *
    * The WHERE is evaluated once, and each group then pays only for its own
    * equality vector, one element-wise product with the WHERE's (Eq 25), its
    * weightings and its aggregation. That equals running every group as
    * `WHERE (where) AND g = v` bit for bit: such an AND node has exactly two
    * factors, a nested WHERE being a subtree (never consolidated) and a bare
    * condition on another column a second condition vector, and a product
    * of two doubles commutes. The one exception is a bare condition on the
    * group column itself, which §5.2 consolidates: its interval set is
    * intersected with each group's `{code}`. Groups whose answer is `None`
    * are dropped.
    */
  def runGroupBy(q: Query): Seq[(String, AqpResult)] = {
    val g = q.groupBy.getOrElse(throw new IllegalArgumentException("no GROUP BY column"))
    val j = ph.columnIndex(g)
    val dict = ph.specs(j).kind match {
      case CategoricalCol(d) => d
      case _ => throw new IllegalArgumentException(s"GROUP BY requires a categorical column, got $g")
    }
    if (dict.isEmpty) return Seq.empty
    val i = ph.columnIndex(q.aggCol)
    val meta = ph.hist1d(i).meta
    val oneD = q.columns == Set(q.aggCol)
    // Per group code: its own coverage vector, already combined with the WHERE.
    val groupProb: Int => Coverage.Vec = q.where match {
      case None => c => pairProb(i, j, IntervalSet.ofCond(Op.Eq, c))
      case Some(w: Cond) if w.col == g =>
        val set = IntervalSet.ofCond(w, ph.specs(j))
        c => pairProb(i, j, set intersect IntervalSet.ofCond(Op.Eq, c))
      case Some(w) =>
        val wv = evalTree(w, i)
        c => pairProb(i, j, IntervalSet.ofCond(Op.Eq, c)) and wv
    }
    dict.indices.flatMap { c =>
      aggregate(q.agg, i, weightings(meta, groupProb(c)), oneD).map(dict(c) -> _)
    }
  }

  // ------------------------------------------------------------ pipeline ----

  private def answer(q: Query, i: Int, where: Option[PredTree]): Option[AqpResult] = {
    val meta = ph.hist1d(i).meta
    val k = meta.k
    val p = where match {
      case None    => Coverage.Vec(Array.fill(k)(1.0), Array.fill(k)(1.0), Array.fill(k)(1.0))
      case Some(w) => evalTree(w, i)
    }
    val oneD = q.columns == Set(q.aggCol)
    aggregate(q.agg, i, weightings(meta, p), oneD)
  }

  /** Recursive predicate evaluation with same-column consolidation. A bare
    * condition behaves like a one-element AND group.
    */
  private def evalTree(tree: PredTree, i: Int): Coverage.Vec = tree match {
    case c: Cond   => evalNode(isAnd = true, List(c), i)
    case And(kids) => evalNode(isAnd = true, kids, i)
    case Or(kids)  => evalNode(isAnd = false, kids, i)
  }

  private def evalNode(isAnd: Boolean, kids: List[PredTree], i: Int): Coverage.Vec = {
    val (conds, subtrees) = kids.partition(_.isInstanceOf[Cond])
    // Delayed transformation: conditions on the same column directly under
    // one connective are consolidated into a single interval set before the
    // coverage -> weighting transformation (§5.2).
    val condVecs = conds
      .collect { case c: Cond => c }
      .groupBy(_.col)
      .toSeq
      .sortBy(_._1)
      .map { case (colName, cs) =>
        val j = ph.columnIndex(colName)
        val sets = cs.map(IntervalSet.ofCond(_, ph.specs(j)))
        val set = if (isAnd) sets.reduce(_ intersect _) else sets.reduce(_ union _)
        pairProb(i, j, set)
      }
    val subVecs = subtrees.map(st => evalTree(st, i))
    val all = condVecs ++ subVecs
    require(all.nonEmpty, "empty predicate node")
    // Eq 25 under conditional independence is the element-wise product;
    // bounds are monotone in each factor, so lows multiply with lows.
    // Eq 26 is the union 1 - prod(1 - p).
    if (isAnd) all.reduce(_ and _) else all.reduce(_ or _)
  }

  /** Eq 27: per-1-d-bin probability that a point of aggregation column `i`
    * satisfies the condition set on column `j`, via the (i,j) pair
    * histogram. Same-column conditions (j == i) read the 1-d histogram
    * directly.
    */
  private def pairProb(i: Int, j: Int, set: IntervalSet): Coverage.Vec = {
    val meta1 = ph.hist1d(i).meta
    if (i == j) Coverage.coverage(set, meta1, ph.m, ph.alpha)
    else {
      val view = views(i * ph.d + j)
      if (view == null) throw new IllegalStateException(s"missing pair histogram ($i,$j)")
      // nu = H^(ij) beta over the pair's refined aggregation bins, each
      // summed onto its parent 1-d bin, then divided by the 1-d counts.
      val k = meta1.k
      val est = new Array[Double](k)
      val lo = new Array[Double](k)
      val hi = new Array[Double](k)
      Engine.addPairProducts(view.cum, view.parent, Coverage.sparse(set, view.pred, ph.m, ph.alpha), est, lo, hi)
      // Clamped to [0, 1] by comparisons, which equal math.min(1, max(0, x))
      // on every input but NaN, and none arrives: h > 0 and nu is a finite
      // sum of non-negative terms.
      def clamp(x: Double) = if (x > 1.0) 1.0 else if (x > 0.0) x else 0.0
      var t = 0
      while (t < k) {
        val h = meta1.counts(t)
        if (h <= 0) { est(t) = 0.0; lo(t) = 0.0; hi(t) = 0.0 }
        else {
          est(t) = clamp(est(t) / h)
          lo(t) = clamp(lo(t) / h)
          hi(t) = clamp(hi(t) / h)
        }
        t += 1
      }
      Coverage.Vec(est, lo, hi)
    }
  }

  /** Eq 24 + Eq 29: weightings w = h ⊙ p with sampling-widened bounds.
    *
    * The paper's Eq 29 widens by z * sqrt(beta(1-beta) * (N-Ns)/(N-1));
    * read literally that is a sub-unit count for any bin. We widen by the
    * binomial count standard deviation sqrt(h * beta(1-beta)) times the
    * finite-population factor, which is the variance the surrounding text
    * derives ("variance is estimated according to the Binomial
    * distribution"). Exact bins (beta in {0,1}) are not widened.
    */
  private def weightings(meta: DimMeta, p: Coverage.Vec): Coverage.Vec = {
    val k = meta.k
    val fpc = if (ph.n <= 1) 0.0 else math.max(0.0, (ph.n - ph.nS).toDouble / (ph.n - 1).toDouble)
    val w = new Array[Double](k)
    val wLo = new Array[Double](k)
    val wHi = new Array[Double](k)
    var t = 0
    while (t < k) {
      val h = meta.counts(t).toDouble
      w(t) = h * p.est(t)
      var lo = h * p.lo(t)
      var hi = h * p.hi(t)
      if (fpc > 0) {
        if (p.lo(t) > 0 && p.lo(t) < 1)
          lo -= z98 * math.sqrt(h * p.lo(t) * (1 - p.lo(t)) * fpc)
        if (p.hi(t) > 0 && p.hi(t) < 1)
          hi += z98 * math.sqrt(h * p.hi(t) * (1 - p.hi(t)) * fpc)
      }
      wLo(t) = math.max(0.0, lo)
      wHi(t) = math.min(h, hi)
      t += 1
    }
    Coverage.Vec(w, wLo, wHi)
  }

  // --------------------------------------------------------- aggregation ----

  private def aggregate(fn: AggFn, i: Int, weights: Coverage.Vec, oneD: Boolean): Option[AqpResult] = {
    val Coverage.Vec(w, wLo, wHi) = weights
    val meta = ph.hist1d(i).meta
    val spec = ph.specs(i)
    val c = meta.midpoints
    val (cLo, cHi) = centreBoundsCache(i)
    val rho = ph.rho
    val nw = norm1(w)

    def ordered(est: Double, lo: Double, hi: Double) =
      Some(AqpResult(est, math.min(lo, est), math.max(hi, est)))

    fn match {
      case AggFn.Count =>
        ordered(nw / rho, norm1(wLo) / rho, norm1(wHi) / rho)

      case AggFn.Sum =>
        if (nw <= 0) return None
        val est = spec.fromGdSum(dot(w, c) / rho, nw / rho)
        // The affine shift scales with the count, so extremise over both
        // count bounds when inverse-transforming the GD-domain sum bounds.
        val counts = Seq(norm1(wLo) / rho, norm1(wHi) / rho)
        val lo = counts.map(spec.fromGdSum(dot(wLo, cLo) / rho, _)).min
        val hi = counts.map(spec.fromGdSum(dot(wHi, cHi) / rho, _)).max
        ordered(est, lo, hi)

      case AggFn.Avg =>
        if (nw <= 0) return None
        val est = spec.fromGd(dot(w, c) / nw)
        val cands = Seq(wLo, wHi).filter(norm1(_) > 0)
        val lo = (cands.map(wc => dot(wc, cLo) / norm1(wc)) :+ (dot(w, c) / nw)).min
        val hi = (cands.map(wc => dot(wc, cHi) / norm1(wc)) :+ (dot(w, c) / nw)).max
        ordered(est, spec.fromGd(lo), spec.fromGd(hi))

      case AggFn.Min => minMax(isMin = true, meta, spec, weights, oneD)
      case AggFn.Max => minMax(isMin = false, meta, spec, weights, oneD)

      case AggFn.Median =>
        if (nw <= 0) return None
        val tStar = medianBin(w)
        val est = {
          // w(0) + ... + w(tStar - 1) from the left, as `w.take(tStar).sum`
          // adds them, without copying the array.
          var below = if (tStar == 0) 0.0 else w(0)
          var t = 1
          while (t < tStar) { below += w(t); t += 1 }
          val f = (nw / 2 - below) / math.max(w(tStar), 1e-12)
          if (meta.unique(tStar) == 2) { if (f < 0.5) meta.vMin(tStar) else meta.vMax(tStar) }
          else meta.vMin(tStar) + (meta.vMax(tStar) - meta.vMin(tStar)) * f
        }
        val cands = Seq(wLo, wHi).filter(norm1(_) > 0)
        val tLo = (cands.map(medianBin) :+ tStar).min
        val tHi = (cands.map(medianBin) :+ tStar).max
        ordered(spec.fromGd(est), spec.fromGd(meta.vMin(tLo)), spec.fromGd(meta.vMax(tHi)))

      case AggFn.Var =>
        if (nw <= 0) return None
        val avg = dot(w, c) / nw
        val est = dot(w, mult(c, c)) / nw - avg * avg
        // Eqs 38-39: per-bin representative points for the bounds.
        val xiLo = new Array[Double](meta.k)
        val xiHi = new Array[Double](meta.k)
        var t = 0
        while (t < meta.k) {
          xiLo(t) =
            if (meta.vMax(t) < avg) meta.vMax(t)
            else if (meta.vMin(t) > avg) meta.vMin(t)
            else avg
          xiHi(t) =
            if (math.abs(avg - meta.vMin(t)) > math.abs(meta.vMax(t) - avg)) meta.vMin(t)
            else meta.vMax(t)
          t += 1
        }
        def varWith(wc: Array[Double], xi: Array[Double]): Double = {
          val n1 = norm1(wc)
          if (n1 <= 0) est
          else {
            val mu = dot(wc, xi) / n1
            dot(wc, mult(xi, xi)) / n1 - mu * mu
          }
        }
        val lo = math.max(0.0, Seq(wLo, wHi).map(varWith(_, xiLo)).min min est)
        val hi = Seq(wLo, wHi).map(varWith(_, xiHi)).max max est
        ordered(spec.fromGdVar(math.max(0.0, est)), spec.fromGdVar(lo), spec.fromGdVar(hi))
    }
  }

  /** MIN and MAX per Table 3 / Eqs 30–33 (MAX mirrors MIN). */
  private def minMax(
      isMin: Boolean, meta: DimMeta, spec: ColumnSpec, weights: Coverage.Vec, oneD: Boolean
  ): Option[AqpResult] = {
    val Coverage.Vec(w, wLo, wHi) = weights
    val k = meta.k
    // The first bin whose `v` exceeds `thresh`, scanning up from bin 0 or
    // down from bin k - 1; -1 if there is none.
    def firstIdx(v: Array[Double], thresh: Double, up: Boolean = isMin): Int = {
      val step = if (up) 1 else -1
      var t = if (up) 0 else k - 1
      while (t >= 0 && t < k && !(v(t) > thresh)) t += step
      if (t < k) t else -1
    }
    val tEst = firstIdx(w, 0.0)
    if (tEst < 0) return None
    def extremeNear(t: Int) = if (isMin) meta.vMin(t) else meta.vMax(t) // estimate side
    def extremeFar(t: Int) = if (isMin) meta.vMax(t) else meta.vMin(t)

    val est =
      if (oneD && meta.unique(tEst) == 2 && w(tEst) < meta.counts(tEst) / 2.0) extremeFar(tEst)
      else extremeNear(tEst)

    // Outer bound: from the widest weightings (wHi), threshold 0 (Eq 31).
    val tOuter = { val t = firstIdx(wHi, 0.0); if (t < 0) tEst else t }
    val outer =
      if (oneD && meta.unique(tOuter) == 2 && wHi(tOuter) < meta.counts(tOuter) / 5.0) extremeFar(tOuter)
      else extremeNear(tOuter)

    // Inner bound: first bin confidently non-empty under wLo (Eq 32), with
    // the sub-bin tightening for single-column queries (§5.4.4).
    val tInner = firstIdx(wLo, 0.5)
    val inner =
      if (tInner >= 0) {
        val u = meta.unique(tInner)
        val h = meta.counts(tInner)
        if (oneD && u > 2 && h > ph.m) {
          val s = HypothesisTest.subBins(u)
          val delta = (meta.vMax(tInner) - meta.vMin(tInner)) / s
          val a = math.max(0, math.min(s - 1, math.floor(s * wLo(tInner) / h).toInt))
          if (isMin) meta.vMax(tInner) - a * delta else meta.vMin(tInner) + a * delta
        } else extremeFar(tInner)
      } else {
        // No confidently non-empty bin: fall back to the farthest possibly
        // non-empty bin so the bound stays conservative.
        val tf = firstIdx(wHi, 0.0, up = !isMin)
        extremeFar(if (tf < 0) tEst else tf)
      }

    val (lo, hi) = if (isMin) (outer, inner) else (inner, outer)
    Some(AqpResult(spec.fromGd(est), spec.fromGd(math.min(lo, est)), spec.fromGd(math.max(hi, est))))
  }

  private def medianBin(w: Array[Double]): Int = {
    val half = norm1(w) / 2
    var acc = 0.0
    var t = 0
    while (t < w.length) {
      acc += w(t)
      if (acc >= half && w(t) > 0) return t
      t += 1
    }
    w.length - 1
  }

  private def mult(x: Array[Double], y: Array[Double]): Array[Double] = {
    val r = new Array[Double](x.length)
    var t = 0
    while (t < r.length) { r(t) = x(t) * y(t); t += 1 }
    r
  }

  private def dot(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var t = 0
    while (t < a.length) { s += a(t) * b(t); t += 1 }
    s
  }

  private def norm1(a: Array[Double]): Double = {
    var s = 0.0; var t = 0
    while (t < a.length) { s += a(t); t += 1 }
    s
  }
}

private[core] object Engine {

  /** Prefix sums of the count matrix `m` (`cols` columns) along its
    * predicate dimension, predicate-edge-major: with `aggOnRows` the
    * aggregation dimension is `m`'s rows (`kAgg = m.length`), else its
    * columns (`kAgg = cols`). Entry `tp * kAgg + ta`, for `tp` in
    * `0 to kPred`, is the sum of the cells of aggregation bin `ta` in
    * predicate bins `0 until tp`, so one run of predicate bins reads two
    * contiguous rows of `kAgg` entries.
    */
  def prefixSums(m: Array[Array[Long]], cols: Int, aggOnRows: Boolean): Array[Long] = {
    val kAgg = if (aggOnRows) m.length else cols
    val kPred = if (aggOnRows) cols else m.length
    val p = new Array[Long]((kPred + 1) * kAgg)
    var tp = 0
    while (tp < kPred) {
      var ta = 0
      while (ta < kAgg) {
        p((tp + 1) * kAgg + ta) = p(tp * kAgg + ta) + (if (aggOnRows) m(ta)(tp) else m(tp)(ta))
        ta += 1
      }
      tp += 1
    }
    p
  }

  /** Rejects metadata with a non-empty bin whose data does not lie within
    * its own edges, `binOf(edges, vMin(t)) == t == binOf(edges, vMax(t))`
    * inside `[edges(0), edges(k)]`, which [[Coverage.sparse]] relies on.
    *
    * @throws IllegalArgumentException naming `what` and the bin
    */
  def requireDataWithinEdges(meta: DimMeta, what: => String): Unit = {
    val e = meta.edges
    val k = meta.k
    var t = 0
    while (t < k) {
      val a = meta.vMin(t)
      val b = meta.vMax(t)
      if (meta.unique(t) > 0 &&
          !(a >= e(0) && b <= e(k) && DimMeta.binOf(e, a) == t && DimMeta.binOf(e, b) == t))
        throw new IllegalArgumentException(
          s"$what: bin $t holds values [$a, $b] outside its edges [${e(t)}, ${e(t + 1)}${if (t == k - 1) "]" else ")"}")
      t += 1
    }
  }

  /** Eq 27's products for an estimate and its two bounds in one pass: for
    * every aggregation bin `ta` of the count matrix whose prefix sums are
    * `cum` (laid out by [[prefixSums]], with `kAgg = parent.length`), adds
    * `nu = sum over tp of cell(ta, tp) * beta(tp)` onto
    * `outEst(parent(ta))`, and likewise with `beta`'s bounds onto `outLo`
    * and `outHi`.
    *
    * Summation order: the cells of `beta`'s runs of ones are summed first,
    * each run as one difference of prefix sums, in `Long`, which is exact;
    * the fractional terms `cell * beta(tp)` are then added onto that
    * integer in ascending `tp`, so only they round; the bins are added onto
    * their parents in ascending `ta`. The three sums share the integer
    * part, as the three vectors share their runs.
    */
  def addPairProducts(
      cum: Array[Long], parent: Array[Int], beta: Coverage.SparseVec,
      outEst: Array[Double], outLo: Array[Double], outHi: Array[Double]
  ): Unit = {
    val kAgg = parent.length
    val ones = new Array[Long](kAgg)
    var r = 0
    while (r < beta.nRuns) {
      val below = beta.runLo(r) * kAgg
      val upTo = beta.runHi(r) * kAgg
      var ta = 0
      while (ta < kAgg) { ones(ta) += cum(upTo + ta) - cum(below + ta); ta += 1 }
      r += 1
    }
    val at = beta.at
    val est = beta.est
    val lo = beta.lo
    val hi = beta.hi
    var ta = 0
    while (ta < kAgg) {
      var e = ones(ta).toDouble
      var l = e
      var h = e
      var q = 0
      while (q < beta.nFrac) {
        val row = at(q) * kAgg + ta
        val cell = (cum(row + kAgg) - cum(row)).toDouble
        e += cell * est(q)
        l += cell * lo(q)
        h += cell * hi(q)
        q += 1
      }
      val p = parent(ta)
      outEst(p) += e
      outLo(p) += l
      outHi(p) += h
      ta += 1
    }
  }
}
