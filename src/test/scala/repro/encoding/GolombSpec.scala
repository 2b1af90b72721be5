package repro.encoding

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class GolombSpec extends AnyFunSuite {

  /** `vals` coded with one shared parameter: (m, payload bytes). */
  private def encode(vals: Seq[Long]): (Int, Array[Byte]) = {
    val m = Golomb.chooseM(vals)
    val w = new BitWriter
    vals.foreach(Golomb.encodeOne(w, _, m))
    (m, w.toBytes)
  }

  test("BitWriter/BitReader roundtrip single bits") {
    val w = new BitWriter
    val bits = Seq(true, false, true, true, false, false, false, true, true, false, true)
    bits.foreach(w.writeBit)
    val rd = new BitReader(w.toBytes)
    bits.foreach(b => assert(rd.readBit() == b))
  }

  test("BitWriter writeBits roundtrips widths 1..64") {
    val rng = new Random(1)
    val cases = (1 to 64).map { width =>
      val v = if (width == 64) rng.nextLong() & Long.MaxValue else rng.nextLong() & ((1L << width) - 1)
      (v, width)
    }
    val w = new BitWriter
    cases.foreach { case (v, width) => w.writeBits(v, width) }
    val rd = new BitReader(w.toBytes)
    cases.foreach { case (v, width) => assert(rd.readBits(width) == v, s"width=$width") }
  }

  test("bitLength counts written bits") {
    val w = new BitWriter
    w.writeBits(5, 3)
    w.writeBit(true)
    assert(w.bitLength == 4)
    w.writeBits(0, 12)
    assert(w.bitLength == 16)
  }

  test("unary roundtrip") {
    val w = new BitWriter
    Seq(0L, 1L, 5L, 13L, 2L).foreach(w.writeUnary)
    val rd = new BitReader(w.toBytes)
    Seq(0L, 1L, 5L, 13L, 2L).foreach(q => assert(rd.readUnary() == q))
  }

  test("Golomb encodes and decodes small values for m in 1..17") {
    for (m <- 1 to 17) {
      val vals = (0L to 40L) ++ Seq(100L, 1000L, 12345L)
      val w = new BitWriter
      vals.foreach(Golomb.encodeOne(w, _, m))
      val rd = new BitReader(w.toBytes)
      vals.foreach(v => assert(Golomb.decodeOne(rd, m) == v, s"m=$m v=$v"))
    }
  }

  test("Golomb roundtrips random geometric-ish data") {
    val rng = new Random(7)
    val vals = Seq.fill(5000)(math.abs(rng.nextGaussian() * 20).toLong)
    val (m, bytes) = encode(vals)
    assert(m >= 1)
    val rd = new BitReader(bytes)
    assert(vals.map(_ => Golomb.decodeOne(rd, m)) == vals)
  }

  test("Golomb beats fixed-width on geometric data") {
    val rng = new Random(3)
    // Geometric with small mean: mostly tiny deltas, occasional big ones.
    val vals = Seq.fill(10000)((math.log(rng.nextDouble() + 1e-12) / math.log(0.6)).toLong)
    val (m, bytes) = encode(vals)
    val maxV = vals.max
    val fixedBits = vals.length.toLong * (64 - java.lang.Long.numberOfLeadingZeros(math.max(1, maxV)))
    assert(bytes.length.toLong * 8 < fixedBits, s"golomb=${bytes.length * 8} bits fixed=$fixedBits")
    assert(m >= 1)
  }

  test("bitLength matches actual encoded size") {
    val vals = Seq(0L, 1L, 2L, 7L, 19L, 200L)
    val m = Golomb.chooseM(vals)
    val w = new BitWriter
    vals.foreach(Golomb.encodeOne(w, _, m))
    assert(Golomb.bitLength(vals, m) == w.bitLength)
  }

  test("chooseM on empty input is 1") {
    assert(Golomb.chooseM(Nil) == 1)
  }

  test("encodeOne rejects negative values") {
    val w = new BitWriter
    intercept[IllegalArgumentException](Golomb.encodeOne(w, -1, 4))
  }

  test("Golomb m=1 degenerates to unary") {
    val w = new BitWriter
    Golomb.encodeOne(w, 3, 1)
    // 3/1=3 -> unary "1110"
    assert(w.bitLength == 4)
    val rd = new BitReader(w.toBytes)
    assert(Golomb.decodeOne(rd, 1) == 3)
  }

  test("zero-length reads/writes are safe") {
    val w = new BitWriter
    w.writeBits(0, 0)
    assert(w.bitLength == 0)
    assert(w.toBytes.isEmpty)
  }
}
