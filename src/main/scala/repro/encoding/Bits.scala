package repro.encoding

import scala.collection.mutable.ArrayBuffer

/** Append-only MSB-first bit writer backing the synopsis codec (Fig 6).
  *
  * Bits are packed into bytes most-significant-bit first so that the dense
  * bin-count encoding uses exactly `ceil(k_i * k_j * l_h / 8)` bytes (Eq 12).
  */
final class BitWriter {
  private val bytes = ArrayBuffer.empty[Byte]
  private var cur: Int = 0
  private var nBits: Int = 0

  /** Write the low `width` bits of `v` (MSB first). `width` in [0, 64]. */
  def writeBits(v: Long, width: Int): Unit = {
    require(width >= 0 && width <= 64, s"bad width $width")
    var i = width - 1
    while (i >= 0) {
      writeBit(((v >>> i) & 1L) == 1L)
      i -= 1
    }
  }

  def writeBit(b: Boolean): Unit = {
    cur = (cur << 1) | (if (b) 1 else 0)
    nBits += 1
    if (nBits == 8) { bytes += cur.toByte; cur = 0; nBits = 0 }
  }

  /** Unary encoding: `q` one-bits then a terminating zero-bit. */
  def writeUnary(q: Long): Unit = {
    var i = 0L
    while (i < q) { writeBit(true); i += 1 }
    writeBit(false)
  }

  /** Pad with zero bits to a byte boundary and return the buffer. */
  def toBytes: Array[Byte] = {
    val out = ArrayBuffer.empty[Byte]
    out ++= bytes
    if (nBits > 0) out += (cur << (8 - nBits)).toByte
    out.toArray
  }

  /** Number of bits written so far. */
  def bitLength: Long = bytes.length.toLong * 8 + nBits
}

/** MSB-first bit reader over a byte array (dual of [[BitWriter]]). */
final class BitReader(data: Array[Byte]) {
  private var pos: Long = 0

  def readBit(): Boolean = {
    val byteIdx = (pos >>> 3).toInt
    val bitIdx = 7 - (pos & 7).toInt
    pos += 1
    ((data(byteIdx) >>> bitIdx) & 1) == 1
  }

  def readBits(width: Int): Long = {
    var v = 0L
    var i = 0
    while (i < width) { v = (v << 1) | (if (readBit()) 1L else 0L); i += 1 }
    v
  }

  /** Read a unary value: count of one-bits before the terminating zero. */
  def readUnary(): Long = {
    var q = 0L
    while (readBit()) q += 1
    q
  }
}
