package repro.baselines.spn

import repro.core.{AggFn, AqpResult, Coverage, DimMeta, IntervalSet, Query}
import repro.gd.ColumnSpec

/** DeepDB-lite: a Sum-Product Network baseline in the spirit of RSPNs [20].
  *
  * Structure learning on a GD-domain sample follows DeepDB's recipe:
  * product nodes split column groups that pass a pairwise-correlation
  * independence test (threshold 0.3, DeepDB's RDC default); sum nodes split
  * rows with 2-means clustering; leaves are per-column equi-depth
  * histograms; recursion stops at 1% of the sample (DeepDB's
  * min_instances_slice). Queries evaluate expectations over the network.
  *
  * Matching the limitations the paper observed in DeepDB: no OR
  * predicates, and COUNT/SUM/AVG only (no VAR/MIN/MAX/MEDIAN). Bounds are
  * probabilistic 0.99 confidence intervals, as in DeepDB's evaluation.
  */
object Spn {

  private val CorrThreshold = 0.3
  private val LeafBins = 64
  private val Z99 = 2.5758293035489004

  sealed trait Node { def sizeBytes: Long }

  final case class Leaf(
      col: Int,
      edges: Array[Double],
      fracs: Array[Double], // fraction of this slice's rows per bin
      vMin: Array[Double],
      vMax: Array[Double],
      uniq: Array[Long],
      nRows: Long,
      nullFrac: Double
  ) extends Node {
    def sizeBytes: Long = 16L + edges.length * 8L + fracs.length * 28L
  }

  final case class ProductNode(children: Seq[Node]) extends Node {
    def sizeBytes: Long = 8L + children.map(_.sizeBytes).sum
  }

  final case class SumNode(weights: Array[Double], children: Seq[Node]) extends Node {
    def sizeBytes: Long = 8L + weights.length * 8L + children.map(_.sizeBytes).sum
  }

  final case class Model(root: Node, n: Long, nS: Long, specs: Array[ColumnSpec]) {
    def sizeBytes: Long = 64L + root.sizeBytes
  }

  // -------------------------------------------------------------- learning ----

  /** Learn from a column-major GD-domain sample (NaN = null). */
  def learn(sample: Array[Array[Double]], specs: Array[ColumnSpec], n: Long): Model = {
    val d = sample.length
    val nS = if (d == 0) 0 else sample(0).length
    val rows = Array.tabulate(nS)(r => Array.tabulate(d)(c => sample(c)(r)))
    val minInstances = math.max(32, nS / 100)
    Model(learnNode(rows, (0 until d).toVector, minInstances, depth = 0), n, nS.toLong, specs)
  }

  private def learnNode(rows: Array[Array[Double]], cols: Vector[Int], minInstances: Int, depth: Int): Node = {
    if (cols.length == 1) return buildLeaf(rows, cols.head)
    if (rows.length < minInstances || depth > 12)
      return ProductNode(cols.map(buildLeaf(rows, _)))

    // Independence test: connected components of |corr| > threshold.
    val comps = correlationComponents(rows, cols)
    if (comps.length > 1)
      return ProductNode(comps.map(comp => learnNode(rows, comp, minInstances, depth + 1)))

    // Row split: 2-means on standardised values.
    twoMeans(rows, cols) match {
      case Some((a, b)) =>
        val wa = a.length.toDouble / rows.length
        SumNode(
          Array(wa, 1.0 - wa),
          Seq(learnNode(a, cols, minInstances, depth + 1), learnNode(b, cols, minInstances, depth + 1))
        )
      case None =>
        ProductNode(cols.map(buildLeaf(rows, _)))
    }
  }

  private def buildLeaf(rows: Array[Array[Double]], col: Int): Leaf = {
    val vals = rows.map(_(col)).filterNot(_.isNaN).sorted
    val nullFrac = if (rows.isEmpty) 0.0 else 1.0 - vals.length.toDouble / rows.length
    if (vals.isEmpty)
      return Leaf(col, Array(0.0, 1.0), Array(0.0), Array(0.0), Array(1.0), Array(0L), 0L, 1.0)

    // Equi-depth edges over distinct quantiles.
    val k = math.min(LeafBins, math.max(1, vals.distinct.length))
    val rawEdges = (0 to k).map(q => vals(math.min(vals.length - 1, q * vals.length / k))).distinct.toArray
    val edges =
      if (rawEdges.length >= 2) rawEdges
      else Array(vals.head, vals.head + 1.0)
    val kk = edges.length - 1
    val counts = new Array[Long](kk)
    val mn = Array.fill(kk)(Double.NaN)
    val mx = Array.fill(kk)(Double.NaN)
    val sets = Array.fill(kk)(new java.util.HashSet[java.lang.Double]())
    vals.foreach { v =>
      val t = DimMeta.binOf(edges, v)
      counts(t) += 1
      if (mn(t).isNaN || v < mn(t)) mn(t) = v
      if (mx(t).isNaN || v > mx(t)) mx(t) = v
      sets(t).add(v)
    }
    Leaf(
      col,
      edges,
      counts.map(_.toDouble / vals.length),
      Array.tabulate(kk)(t => if (mn(t).isNaN) edges(t) else mn(t)),
      Array.tabulate(kk)(t => if (mx(t).isNaN) edges(t + 1) else mx(t)),
      sets.map(_.size.toLong),
      vals.length.toLong,
      nullFrac
    )
  }

  private def correlationComponents(rows: Array[Array[Double]], cols: Vector[Int]): Vector[Vector[Int]] = {
    val p = cols.length
    val stats = cols.map { c =>
      val vs = rows.map(_(c)).filterNot(_.isNaN)
      val mean = if (vs.isEmpty) 0.0 else vs.sum / vs.length
      val sd = if (vs.length < 2) 1.0
      else math.max(1e-9, math.sqrt(vs.map(v => (v - mean) * (v - mean)).sum / (vs.length - 1)))
      (mean, sd)
    }
    val std = rows.map { r =>
      Array.tabulate(p)(a => if (r(cols(a)).isNaN) 0.0 else (r(cols(a)) - stats(a)._1) / stats(a)._2)
    }
    val adj = Array.fill(p)(scala.collection.mutable.Set.empty[Int])
    for (a <- 0 until p; b <- a + 1 until p) {
      val corr = std.map(r => r(a) * r(b)).sum / math.max(1, std.length)
      if (math.abs(corr) > CorrThreshold) { adj(a) += b; adj(b) += a }
    }
    // Connected components.
    val seen = Array.fill(p)(false)
    val comps = scala.collection.mutable.ArrayBuffer.empty[Vector[Int]]
    for (s <- 0 until p if !seen(s)) {
      val stack = scala.collection.mutable.Stack(s)
      val comp = scala.collection.mutable.ArrayBuffer.empty[Int]
      while (stack.nonEmpty) {
        val v = stack.pop()
        if (!seen(v)) {
          seen(v) = true
          comp += v
          adj(v).foreach(w => if (!seen(w)) stack.push(w))
        }
      }
      comps += comp.map(cols(_)).toVector
    }
    comps.toVector
  }

  /** Deterministic 2-means over standardised values; None if degenerate. */
  private def twoMeans(rows: Array[Array[Double]], cols: Vector[Int]): Option[(Array[Array[Double]], Array[Array[Double]])] = {
    val p = cols.length
    val stats = cols.map { c =>
      val vs = rows.map(_(c)).filterNot(_.isNaN)
      val mean = if (vs.isEmpty) 0.0 else vs.sum / vs.length
      val sd = if (vs.length < 2) 1.0
      else math.max(1e-9, math.sqrt(vs.map(v => (v - mean) * (v - mean)).sum / (vs.length - 1)))
      (mean, sd)
    }
    def vec(r: Array[Double]): Array[Double] =
      Array.tabulate(p)(a => if (r(cols(a)).isNaN) 0.0 else (r(cols(a)) - stats(a)._1) / stats(a)._2)
    val vs = rows.map(vec)
    def norm(v: Array[Double]) = v.map(x => x * x).sum
    // Deterministic seeds: extreme rows by L2 norm.
    var c1 = vs(vs.indices.minBy(i => norm(vs(i))))
    var c2 = vs(vs.indices.maxBy(i => norm(vs(i))))
    if (java.util.Arrays.equals(c1, c2)) return None
    var assign = new Array[Boolean](vs.length)
    var iter = 0
    var changed = true
    while (iter < 10 && changed) {
      changed = false
      var i = 0
      while (i < vs.length) {
        def d2(c: Array[Double]) = {
          var s = 0.0; var a = 0
          while (a < p) { val d = vs(i)(a) - c(a); s += d * d; a += 1 }
          s
        }
        val toSecond = d2(c2) < d2(c1)
        if (toSecond != assign(i)) { assign(i) = toSecond; changed = true }
        i += 1
      }
      def centroid(sel: Boolean): Array[Double] = {
        val acc = new Array[Double](p)
        var cnt = 0
        var i2 = 0
        while (i2 < vs.length) {
          if (assign(i2) == sel) { var a = 0; while (a < p) { acc(a) += vs(i2)(a); a += 1 }; cnt += 1 }
          i2 += 1
        }
        if (cnt == 0) null else acc.map(_ / cnt)
      }
      val n1 = centroid(false); val n2 = centroid(true)
      if (n1 == null || n2 == null) return None
      c1 = n1; c2 = n2
      iter += 1
    }
    val (b, a) = rows.zip(assign).partition(_._2)
    if (a.isEmpty || b.isEmpty) None
    else Some((a.map(_._1), b.map(_._1)))
  }

  // ----------------------------------------------------------------- query ----

  /** Answer a query, or None when the template is unsupported (OR
    * connective, non-COUNT/SUM/AVG aggregate) or the predicate probability
    * vanishes.
    */
  def run(model: Model, q: Query): Option[AqpResult] = {
    if (q.where.exists(_.hasOr)) return None
    if (!Set[AggFn](AggFn.Count, AggFn.Sum, AggFn.Avg).contains(q.agg)) return None
    val sets: Map[Int, IntervalSet] = q.where match {
      case None => Map.empty
      case Some(tree) => tree.flattenAnd match {
        case Some(conds) =>
          conds
            .groupBy(_.col)
            .map { case (name, cs) =>
              val j = model.specs.indexWhere(_.name == name)
              require(j >= 0, s"unknown column $name")
              j -> cs.map(IntervalSet.ofCond(_, model.specs(j))).reduce(_ intersect _)
            }
        case None => return None
      }
    }
    val i = model.specs.indexWhere(_.name == q.aggCol)
    val (p, pLo, pHi, e, eLo, eHi) = expectation(model.root, i, sets)
    val spec = model.specs(i)
    q.agg match {
      case AggFn.Count =>
        Some(AqpResult(model.n * p, model.n * math.max(0, pLo), model.n * math.min(1, pHi)))
      case AggFn.Sum =>
        if (p <= 0) None
        else
          Some(
            AqpResult(
              spec.fromGdSum(model.n * e, model.n * p),
              spec.fromGdSum(model.n * eLo, model.n * math.max(0, pLo)),
              spec.fromGdSum(model.n * eHi, model.n * math.min(1, pHi))
            )
          )
      case AggFn.Avg =>
        if (p <= 0) None
        else {
          val est = spec.fromGd(e / p)
          val lo = spec.fromGd(if (pHi > 0) eLo / pHi else e / p)
          val hi = spec.fromGd(if (pLo > 0) eHi / pLo else e / p)
          Some(AqpResult(est, math.min(lo, est), math.max(hi, est)))
        }
      case _ => None
    }
  }

  /** Returns (p, pLo, pHi, e, eLo, eHi) where p is the predicate probability
    * for a random row and e = E[X_agg * 1_pred] in the GD domain, each with
    * 0.99 CI bounds propagated from per-leaf binomial uncertainty.
    */
  private def expectation(node: Node, aggCol: Int, sets: Map[Int, IntervalSet]): (Double, Double, Double, Double, Double, Double) =
    node match {
      case leaf: Leaf =>
        val covOpt = sets.get(leaf.col)
        val (pRaw, mean0) = leafStats(leaf, covOpt)
        // COUNT/SUM/AVG aggregate over non-null values of the aggregation
        // column, so its null mass is excluded even without a condition.
        val p0 = if (leaf.col == aggCol && covOpt.isEmpty) (1.0 - leaf.nullFrac) * pRaw else pRaw
        val se = if (leaf.nRows > 0) Z99 * math.sqrt(math.max(p0 * (1 - p0), 1e-12) / leaf.nRows) else 1.0
        val pLo = math.max(0.0, p0 - se)
        val pHi = math.min(1.0, p0 + se)
        if (leaf.col == aggCol) (p0, pLo, pHi, p0 * mean0, pLo * mean0, pHi * mean0)
        else (p0, pLo, pHi, Double.NaN, Double.NaN, Double.NaN)
      case ProductNode(children) =>
        children.map(expectation(_, aggCol, sets)).reduce { (x, y) =>
          val e = if (x._4.isNaN) y._4 * x._1 else x._4 * y._1
          val eLo = if (x._5.isNaN) y._5 * x._2 else x._5 * y._2
          val eHi = if (x._6.isNaN) y._6 * x._3 else x._6 * y._3
          (x._1 * y._1, x._2 * y._2, x._3 * y._3, e, eLo, eHi)
        }
      case SumNode(weights, children) =>
        children.zip(weights).map { case (c, w) =>
          val r = expectation(c, aggCol, sets)
          (w * r._1, w * r._2, w * r._3, w * r._4, w * r._5, w * r._6)
        }.reduce((x, y) => (x._1 + y._1, x._2 + y._2, x._3 + y._3, x._4 + y._4, x._5 + y._5, x._6 + y._6))
    }

  /** (probability a row of this slice satisfies the set and is non-null on
    * this column, conditional mean of covered mass). With no condition the
    * probability is 1 and the mean is the slice mean.
    */
  private def leafStats(leaf: Leaf, set: Option[IntervalSet]): (Double, Double) = {
    val k = leaf.fracs.length
    set match {
      case None =>
        var mean = 0.0
        var t = 0
        while (t < k) { mean += leaf.fracs(t) * (leaf.vMin(t) + leaf.vMax(t)) / 2; t += 1 }
        (1.0, mean)
      case Some(s) =>
        var p = 0.0
        var num = 0.0
        var t = 0
        while (t < k) {
          val cov = Coverage.binCoverage(s, leaf.vMin(t), leaf.vMax(t), leaf.uniq(t))
          if (cov > 0) {
            val mass = leaf.fracs(t) * cov * (1.0 - leaf.nullFrac)
            p += mass
            num += mass * (leaf.vMin(t) + leaf.vMax(t)) / 2
          }
          t += 1
        }
        (p, if (p > 0) num / p else 0.0)
    }
  }
}
