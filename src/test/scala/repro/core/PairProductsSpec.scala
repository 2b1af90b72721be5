package repro.core

import java.math.{BigDecimal => Exact}

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite

/** Eq 27's kernel, `Engine.addPairProducts`, against exact arithmetic. For
  * every row `ta` it adds `sum over tp of counts(ta)(tp) * beta(tp)` onto
  * `out(parent(ta))`, for the estimate and both bounds of `beta` at once.
  * Its runs of ones are summed exactly, in `Long`; the fractional terms
  * then round once each as they are multiplied and once each as they are
  * added, and so does every row added onto its parent. For non-negative
  * terms that bounds each output's relative error by (nFrac + rows per
  * parent) · 2^-52 (recursive summation, Higham 1993), whatever the shape
  * of `beta`.
  */
class PairProductsSpec extends AnyFunSuite {

  /** `beta` with bounds `lo` and `hi`, dense, in the sparse form the
    * kernel reads: the runs of `beta == 1.0` and the bins that are neither
    * 0 nor 1. An exact bin must be its own bound.
    */
  private def sparseOf(beta: Array[Double], lo: Array[Double], hi: Array[Double]): Coverage.SparseVec = {
    val runs = beta.indices.filter(beta(_) == 1.0).foldLeft(List.empty[(Int, Int)]) {
      case ((a, b) :: rest, t) if b == t => (a, t + 1) :: rest
      case (acc, t)                      => (t, t + 1) :: acc
    }.reverse
    val frac = beta.indices.filter(t => beta(t) != 0.0 && beta(t) != 1.0).toArray
    new Coverage.SparseVec(
      beta.length, runs.map(_._1).toArray, runs.map(_._2).toArray, runs.length,
      frac, frac.map(beta), frac.map(lo), frac.map(hi), frac.length)
  }

  /** The kernel's (estimate, lo, hi) outputs. */
  private def kernel(counts: Array[Array[Long]], parent: Array[Int], k1: Int, beta: Array[Double],
                     lo: Array[Double], hi: Array[Double]): Seq[Array[Double]] = {
    val out = Seq.fill(3)(new Array[Double](k1))
    val cum = Engine.prefixSums(counts, beta.length, aggOnRows = true)
    Engine.addPairProducts(cum, parent, sparseOf(beta, lo, hi), out(0), out(1), out(2))
    out
  }

  /** Per 1-d bin, the exact value of the sum of `counts(ta)(tp) * beta(tp)`. */
  private def exact(counts: Array[Array[Long]], parent: Array[Int], k1: Int, beta: Array[Double]): Array[Exact] = {
    val out = Array.fill(k1)(Exact.ZERO)
    for (ta <- counts.indices; tp <- beta.indices)
      out(parent(ta)) = out(parent(ta)).add(new Exact(counts(ta)(tp)).multiply(new Exact(beta(tp))))
    out
  }

  private val twoToMinus52 = new Exact(Math.ulp(1.0))

  /** Every output lies within (nFrac + rows per parent) · 2^-52 of its
    * exact value, relative.
    */
  private def withinBound(counts: Array[Array[Long]], parent: Array[Int], k1: Int, beta: Array[Double],
                          lo: Array[Double], hi: Array[Double]): Prop = {
    val nFrac = beta.count(b => b != 0.0 && b != 1.0)
    val got = kernel(counts, parent, k1, beta, lo, hi)
    val props = for ((name, vec, out) <- Seq(("est", beta, got(0)), ("lo", lo, got(1)), ("hi", hi, got(2)))) yield {
      val want = exact(counts, parent, k1, vec)
      val ok = (0 until k1).forall { p =>
        val tol = want(p).multiply(twoToMinus52).multiply(new Exact(nFrac + parent.count(_ == p)))
        new Exact(out(p)).subtract(want(p)).abs.compareTo(tol) <= 0
      }
      Prop(ok) :| s"$name: beta ${vec.mkString(",")}; got ${out.mkString(",")}; want ${want.mkString(",")}"
    }
    props.reduce(_ && _) :| s"counts ${counts.map(_.mkString(",")).mkString(" / ")}; parent ${parent.mkString(",")}"
  }

  private def bits(a: Array[Double]) = a.map(java.lang.Double.doubleToRawLongBits).toSeq

  // Cells small, large and zero, with every row sum below 2^52 (a sample's
  // counts are far below it).
  private def cell(cols: Int): Gen[Long] = Gen.frequency(
    3 -> Gen.const(0L),
    4 -> Gen.choose(0L, 50L),
    2 -> Gen.choose(0L, 1L << 40),
    1 -> Gen.choose(0L, (1L << 52) / cols)
  )

  private def row(cols: Int): Gen[Array[Long]] = Gen.frequency(
    4 -> Gen.containerOfN[Array, Long](cols, cell(cols)),
    1 -> Gen.const(new Array[Long](cols)) // a row whose cells are all 0
  )

  /** Rows, their parent 1-d bins (non-decreasing, as refinement gives) and
    * the number of 1-d bins.
    */
  private def matrix(cols: Int): Gen[(Array[Array[Long]], Array[Int], Int)] = for {
    rows <- Gen.choose(1, 12)
    counts <- Gen.containerOfN[Array, Array[Long]](rows, row(cols))
    k1 <- Gen.choose(1, rows)
    parent <- Gen.containerOfN[Array, Int](rows, Gen.choose(0, k1 - 1))
  } yield (counts, parent.sorted, k1)

  // Fractional coverages, including the extremes a double allows.
  private val frac: Gen[Double] = Gen.oneOf(
    Gen.choose(1e-9, 1.0 - 1e-9),
    Gen.oneOf(0.5, 1.0 / 3, Double.MinPositiveValue, Math.nextDown(1.0), 1e-300)
  )

  private val entry: Gen[Double] = Gen.frequency(3 -> Gen.const(0.0), 4 -> Gen.const(1.0), 2 -> frac)

  private def ones(n: Int) = Array.fill(n)(1.0)

  /** Each shape of beta over `cols` predicate bins. */
  private val shapes: Seq[(String, Int => Gen[Array[Double]])] = Seq(
    "fractional first (x > v)" -> (cols => for {
      f <- frac; z <- Gen.choose(0, cols - 1)
    } yield Array.fill(z)(0.0) ++ Array(f) ++ ones(cols - z - 1)),
    "fractional last (x < v)" -> (cols => for {
      f <- frac; o <- Gen.choose(0, cols - 1)
    } yield ones(o) ++ Array(f) ++ Array.fill(cols - o - 1)(0.0)),
    "several fractional entries" -> (cols => for {
      b <- Gen.containerOfN[Array, Double](cols, entry)
      at <- Gen.containerOfN[Array, Int](3, Gen.choose(0, cols - 1))
      fs <- Gen.containerOfN[Array, Double](3, frac)
    } yield { at.indices.foreach(q => b(at(q)) = fs(q)); b }),
    "all ones" -> (cols => Gen.const(ones(cols))),
    "all zeros" -> (cols => Gen.const(new Array[Double](cols))),
    "random entries" -> (cols => Gen.containerOfN[Array, Double](cols, entry))
  )

  /** One bound of a fractional `b`: `b` itself, an extreme, or in between. */
  private def bound(b: Double, extreme: Double): Gen[Double] =
    Gen.oneOf(Gen.const(b), Gen.const(extreme), Gen.choose(math.min(b, extreme), math.max(b, extreme)))

  /** Lower and upper bounds around `beta`; exact bins are their own bound. */
  private def bounds(beta: Array[Double]): Gen[(Array[Double], Array[Double])] = for {
    lo <- Gen.sequence[Array[Double], Double](beta.map(b => if (b == 0.0 || b == 1.0) Gen.const(b) else bound(b, 0.0)))
    hi <- Gen.sequence[Array[Double], Double](beta.map(b => if (b == 0.0 || b == 1.0) Gen.const(b) else bound(b, 1.0)))
  } yield (lo, hi)

  private val cols: Gen[Int] = Gen.frequency(1 -> Gen.const(1), 5 -> Gen.choose(2, 40)) // one bin, or several

  private def check(prop: Prop): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(400), prop)
    assert(res.passed, res.status.toString)
  }

  for ((name, shape) <- shapes) {
    test(s"addPairProducts is within (nFrac + rows per parent) ulps of exact arithmetic: $name") {
      val gen = for {
        c <- cols
        m <- matrix(c)
        beta <- shape(c)
        b <- bounds(beta)
      } yield (m, beta, b)
      check(Prop.forAllNoShrink(gen) { case ((counts, parent, k1), beta, (lo, hi)) =>
        withinBound(counts, parent, k1, beta, lo, hi)
      })
    }
  }

  test("addPairProducts with no fractional entry gives the exact integer sums, bitwise") {
    val gen = for {
      c <- cols
      m <- matrix(c)
      beta <- Gen.oneOf(
        Gen.const(ones(c)), Gen.const(new Array[Double](c)), Gen.containerOfN[Array, Double](c, Gen.oneOf(0.0, 1.0)))
    } yield (m, beta)
    check(Prop.forAllNoShrink(gen) { case ((counts, parent, k1), beta) =>
      def sums(parent: Array[Int], k1: Int): Array[Long] = {
        val s = new Array[Long](k1)
        for (ta <- counts.indices; tp <- beta.indices if beta(tp) == 1.0) s(parent(ta)) += counts(ta)(tp)
        s
      }
      // Each row on its own, and rows summed onto their parents while the
      // sums stay below 2^53, where a double holds every integer.
      val own = counts.indices.toArray
      val perRow = sums(own, counts.length)
      val perParent = sums(parent, k1)
      val rowsExact = kernel(counts, own, counts.length, beta, beta, beta).forall(bits(_) == bits(perRow.map(_.toDouble)))
      val parentsExact = kernel(counts, parent, k1, beta, beta, beta).forall { out =>
        perParent.indices.forall(p => perParent(p) >= (1L << 53) || out(p) == perParent(p).toDouble)
      }
      Prop(rowsExact && parentsExact) :| s"beta ${beta.mkString(",")}; counts ${counts.map(_.mkString(",")).mkString(" / ")}"
    })
  }

  test("addPairProducts gives three bitwise-equal outputs when est = lo = hi") {
    val gen = for {
      c <- cols
      m <- matrix(c)
      beta <- Gen.oneOf(shapes.map(_._2(c))).flatMap(identity)
    } yield (m, beta)
    check(Prop.forAllNoShrink(gen) { case ((counts, parent, k1), beta) =>
      val Seq(e, l, h) = kernel(counts, parent, k1, beta, beta, beta)
      Prop(bits(e) == bits(l) && bits(e) == bits(h)) :| s"beta ${beta.mkString(",")}"
    })
  }

  /** The two orientations of [[Engine.prefixSums]]: aggregation bins are the
    * matrix's rows, or its columns.
    */
  private def rowPrefixSums(m: Array[Array[Long]], cols: Int): Array[Long] =
    Engine.prefixSums(m, cols, aggOnRows = true)
  private def columnPrefixSums(m: Array[Array[Long]], cols: Int): Array[Long] =
    Engine.prefixSums(m, cols, aggOnRows = false)

  test("columnPrefixSums equals rowPrefixSums of the transposed matrix") {
    val gen = for {
      cols <- Gen.choose(1, 20)
      m <- matrix(cols)
    } yield (m._1, cols)
    check(Prop.forAllNoShrink(gen) { case (counts, cols) =>
      val t = counts.transpose
      val byCols = columnPrefixSums(counts, cols)
      val byRows = rowPrefixSums(counts, cols)
      Prop(byCols.length == (counts.length + 1) * cols &&
        byCols.sameElements(rowPrefixSums(t, counts.length)) &&
        byRows.sameElements(columnPrefixSums(t, counts.length)))
    })
  }

  test("prefix sums are predicate-edge-major: entry tp * kAgg + ta sums the first tp cells of bin ta") {
    val gen = for {
      cols <- Gen.choose(1, 20)
      m <- matrix(cols)
    } yield (m._1, cols)
    check(Prop.forAllNoShrink(gen) { case (counts, cols) =>
      val p = Engine.prefixSums(counts, cols, aggOnRows = true)
      val kAgg = counts.length
      Prop(p.length == (cols + 1) * kAgg && (0 to cols).forall { tp =>
        (0 until kAgg).forall(ta => p(tp * kAgg + ta) == counts(ta).take(tp).sum)
      })
    })
  }
}
