package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class HypothesisTestSpec extends AnyFunSuite {

  test("Terrell-Scott sub-bin counts (Eq 2)") {
    assert(HypothesisTest.subBins(1) == 2)   // ceil(2^(1/3)) = 2
    assert(HypothesisTest.subBins(4) == 2)   // ceil(8^(1/3)) = 2
    assert(HypothesisTest.subBins(5) == 3)   // ceil(10^(1/3)) = 2.15 -> 3
    assert(HypothesisTest.subBins(13) == 3)  // ceil(26^(1/3)) = 2.96 -> 3
    assert(HypothesisTest.subBins(14) == 4)  // ceil(28^(1/3)) = 3.03 -> 4
    assert(HypothesisTest.subBins(500) == 10)
    assert(HypothesisTest.subBins(0) == 1)
  }

  test("chi-squared critical values match known quantiles") {
    // Standard table values: chi2_{0.05}(1)=3.841, chi2_{0.05}(4)=9.488,
    // chi2_{0.001}(9)=27.877.
    assert(math.abs(HypothesisTest.criticalValue(0.05, 1) - 3.841) < 0.01)
    assert(math.abs(HypothesisTest.criticalValue(0.05, 4) - 9.488) < 0.01)
    assert(math.abs(HypothesisTest.criticalValue(0.001, 9) - 27.877) < 0.01)
  }

  test("critical value is monotone in dof and decreasing in alpha") {
    assert(HypothesisTest.criticalValue(0.01, 3) > HypothesisTest.criticalValue(0.05, 3))
    assert(HypothesisTest.criticalValue(0.01, 8) > HypothesisTest.criticalValue(0.01, 3))
  }

  test("statistic is zero for perfectly uniform counts") {
    assert(HypothesisTest.statistic(Array(10L, 10L, 10L, 10L)) == 0.0)
  }

  test("statistic grows with imbalance") {
    val even = HypothesisTest.statistic(Array(12L, 10L, 11L, 11L))
    val skew = HypothesisTest.statistic(Array(40L, 1L, 1L, 2L))
    assert(skew > even)
  }

  /** The uniformity check on weight-1 rows. */
  private def isUniform(xs: Array[Double], lo: Double, hi: Double, u: Long, alpha: Double): Boolean =
    HypothesisTest.nonUniformity(xs, Array.fill(xs.length)(1L), 0, xs.length, lo, hi, u, alpha) <= 1.0

  test("subBinCounts assigns half-open sub-bins with closed top") {
    val xs = Array(0.0, 0.9, 1.0, 1.9, 2.0, 3.0)
    val counts = HypothesisTest.subBinCounts(xs, Array.fill(6)(1L), 0, 6, 0.0, 3.0, 3)
    // [0,1): {0, 0.9}; [1,2): {1.0, 1.9}; [2,3]: {2.0, 3.0}
    assert(counts.toSeq == Seq(2L, 2L, 2L))
    // Rows 1 until 5 with weights 2..5: {0.9}; {1.0, 1.9}; {2.0}.
    val weighted = HypothesisTest.subBinCounts(xs, Array(1L, 2L, 3L, 4L, 5L, 6L), 1, 5, 0.0, 3.0, 3)
    assert(weighted.toSeq == Seq(2L, 7L, 5L))
  }

  test("uniform data passes IsUniform") {
    val rng = new Random(11)
    val xs = Array.fill(5000)(rng.nextDouble() * 100)
    val u = xs.distinct.length.toLong
    assert(isUniform(xs, 0, 100, u, 0.001))
  }

  test("bimodal data fails IsUniform") {
    val rng = new Random(13)
    val xs = Array.fill(5000)(if (rng.nextBoolean()) rng.nextDouble() * 5 else 95 + rng.nextDouble() * 5)
    val u = xs.distinct.length.toLong
    assert(!isUniform(xs, 0, 100, u, 0.001))
  }

  test("tiny bins (s < 2) are trivially uniform") {
    assert(isUniform(Array(1.0, 1.0), 0, 10, 0, 0.001))
    assert(isUniform(Array.empty[Double], 0, 10, 5, 0.001))
  }

  test("false-positive rate of the test is near alpha for uniform data") {
    val rng = new Random(19)
    val alpha = 0.05
    val rejects = (1 to 400).count { _ =>
      val xs = Array.fill(1000)(rng.nextDouble() * 10)
      !isUniform(xs, 0, 10, xs.distinct.length.toLong, alpha)
    }
    // 400 trials at alpha=0.05: expect ~20 rejects; allow generous slack.
    assert(rejects < 60, s"rejects=$rejects")
  }
}
