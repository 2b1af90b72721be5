package repro.encoding

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Builder, PairwiseHist}
import repro.core.SynopsisAssertions.assertSameSynopsis
import repro.gd.{CategoricalCol, ColumnSpec, NumericCol}

import scala.util.Random

class CodecSpec extends AnyFunSuite {

  private def buildSample(): PairwiseHist = {
    val rng = new Random(101)
    val n = 6000
    val sample = Array(
      Array.fill(n)(math.rint(rng.nextDouble() * 2000)),
      Array.tabulate(n)(r => if (r % 9 == 0) Double.NaN else math.rint(math.pow(rng.nextDouble(), 2) * 500)),
      Array.fill(n)(math.rint(rng.nextDouble() * 6)) // small-cardinality
    )
    val specs = Array(
      ColumnSpec("x", NumericCol(10, -50), 0),
      ColumnSpec("y", NumericCol(1, 0), n / 9L),
      ColumnSpec("cat", CategoricalCol(Array("a", "b", "c", "d", "e", "f", "g")), 0)
    )
    Builder.build(sample, specs, 60000L, 60, 0.001)
  }

  test("encode/decode roundtrips the complete synopsis") {
    // Every field, pair vMin/vMax/unique and the rederived marginal counts
    // included.
    val ph = buildSample()
    assertSameSynopsis(ph, Codec.decode(Codec.encode(ph)))
  }

  test("decoded specs preserve the literal transforms") {
    val ph = buildSample()
    val back = Codec.decode(Codec.encode(ph))
    assert(back.specs(0).toGd(12.3) == ph.specs(0).toGd(12.3))
    assert(back.specs(2).toGd("c") == ph.specs(2).toGd("c"))
    assert(back.specs(0).fromGd(173.0) == ph.specs(0).fromGd(173.0))
  }

  test("synopsis is small: sub-100KB for a 3-column sample") {
    val ph = buildSample()
    val size = Codec.sizeBytes(ph)
    assert(size < 100 * 1024, s"size=$size")
  }

  test("measure breakdown sums close to the true encoded size") {
    val ph = buildSample()
    val b = Codec.measure(ph)
    // measure tallies the sections of the one encoding pass.
    assert(b.total == Codec.encode(ph).length, s"${b.total} vs ${Codec.encode(ph).length}")
    assert(b.params > 0 && b.hist1d > 0 && b.hist2d > 0 && b.counts > 0)
  }

  test("dense counts respect the Eq 12 bit bound") {
    val ph = buildSample()
    val b = Codec.measure(ph)
    // Upper bound: every histogram stored densely with l_h bits (Eq 12/13)
    // plus per-histogram headers.
    def lh(mx: Long): Long = math.max(1, 64 - java.lang.Long.numberOfLeadingZeros(mx))
    val denseBound = ph.hist1d.map { h =>
      (h.meta.counts.length.toLong * lh(h.meta.counts.max) + 7) / 8 + 12
    }.sum + ph.hist2d.values.map { h =>
      val flat = h.counts.flatten
      (flat.length.toLong * lh(math.max(1, flat.max)) + 7) / 8 + 12
    }.sum
    assert(b.counts <= denseBound, s"${b.counts} > $denseBound")
  }

  test("sparse matrices win on mostly-zero grids") {
    // Construct an artificial diagonal-heavy synopsis via correlated data.
    val rng = new Random(103)
    val n = 8000
    val xi = Array.fill(n)(math.rint(rng.nextDouble() * 1000))
    val xj = xi.map(v => math.rint(v + rng.nextDouble() * 5))
    val sample = Array(xi, xj)
    val specs = Array(ColumnSpec("a", NumericCol(1, 0), 0), ColumnSpec("b", NumericCol(1, 0), 0))
    val ph = Builder.build(sample, specs, n.toLong, 80, 0.001)
    val pairH = ph.hist2d((1, 0))
    val flat = pairH.counts.flatten
    val zeroFrac = flat.count(_ == 0L).toDouble / flat.length
    if (zeroFrac > 0.5) {
      // Roundtrip still exact under the sparse path.
      val back = Codec.decode(Codec.encode(ph))
      assert(back.hist2d((1, 0)).counts.map(_.toSeq).toSeq == pairH.counts.map(_.toSeq).toSeq)
    }
    succeed
  }

  test("varlong roundtrip") {
    val bos = new java.io.ByteArrayOutputStream()
    val out = new java.io.DataOutputStream(bos)
    val vals = Seq(0L, 1L, 127L, 128L, 300L, 1L << 20, Long.MaxValue)
    vals.foreach(Codec.writeVarLong(out, _))
    val in = new java.io.DataInputStream(new java.io.ByteArrayInputStream(bos.toByteArray))
    vals.foreach(v => assert(Codec.readVarLong(in) == v))
  }
}
