package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite

/** Eq 27's kernel, `Engine.addPairProducts`, against the plain loop it
  * must equal: for every row, `nu = 0.0` plus `counts(ta)(tp) * beta(tp)` for
  * each `beta(tp) > 0` in ascending `tp`, added onto `out(parent(ta))`. The
  * two must agree bit for bit on every shape of `beta` a coverage vector can
  * take.
  */
class PairProductsSpec extends AnyFunSuite {

  private def naive(counts: Array[Array[Long]], parent: Array[Int], beta: Array[Double], k1: Int): Array[Double] = {
    val out = new Array[Double](k1)
    for (ta <- counts.indices) {
      var nu = 0.0
      for (tp <- beta.indices if beta(tp) > 0) nu += counts(ta)(tp) * beta(tp)
      out(parent(ta)) += nu
    }
    out
  }

  private def kernel(counts: Array[Array[Long]], parent: Array[Int], beta: Array[Double], k1: Int): Array[Double] = {
    val out = new Array[Double](k1)
    Engine.addPairProducts(Engine.rowPrefixSums(counts), parent, beta, out)
    out
  }

  /** The kernel's and the loop's sums carry the same bits. */
  private def agrees(counts: Array[Array[Long]], parent: Array[Int], k1: Int, beta: Array[Double]): Prop = {
    val got = kernel(counts, parent, beta, k1)
    val want = naive(counts, parent, beta, k1)
    val same = got.indices.forall(t =>
      java.lang.Double.doubleToRawLongBits(got(t)) == java.lang.Double.doubleToRawLongBits(want(t)))
    Prop(same) :| s"beta ${beta.mkString(",")}; counts ${counts.map(_.mkString(",")).mkString(" / ")}; " +
      s"parent ${parent.mkString(",")}; got ${got.mkString(",")}; want ${want.mkString(",")}"
  }

  // Cells small, large and zero, with every row sum below 2^53 (a sample's
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

  private def check(prop: Prop): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(400), prop)
    assert(res.passed, res.status.toString)
  }

  for ((name, shape) <- shapes) {
    test(s"addPairProducts equals the ascending cell-by-cell loop bitwise: $name") {
      val gen = for {
        cols <- Gen.frequency(1 -> Gen.const(1), 5 -> Gen.choose(2, 40)) // one bin, or several
        m <- matrix(cols)
        beta <- shape(cols)
      } yield (m, beta)
      check(Prop.forAllNoShrink(gen) { case ((counts, parent, k1), beta) => agrees(counts, parent, k1, beta) })
    }
  }

  test("columnPrefixSums equals rowPrefixSums of the transposed matrix") {
    val gen = for {
      cols <- Gen.choose(1, 20)
      m <- matrix(cols)
    } yield (m._1, cols)
    check(Prop.forAllNoShrink(gen) { case (counts, cols) =>
      val viaT = Engine.rowPrefixSums(counts.transpose)
      val direct = Engine.columnPrefixSums(counts, cols)
      direct.length == cols && direct.indices.forall(t => direct(t).sameElements(viaT(t)))
    })
  }
}
