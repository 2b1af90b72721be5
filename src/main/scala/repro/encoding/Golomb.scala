package repro.encoding

/** Golomb coding of non-negative integers (§4.3: sparse bin-count indices are
  * delta-encoded with Golomb codes, optimal for geometric gap distributions).
  *
  * A value n is encoded as quotient `q = n / m` in unary followed by the
  * remainder `r = n % m` in truncated binary. The parameter `m` is chosen
  * from the data mean via the classic geometric-optimal rule.
  */
object Golomb {

  /** Near-optimal Golomb parameter for geometrically distributed data with
    * the given mean: m = max(1, ceil(ln2 * (mean + 1))).
    */
  def chooseM(values: Iterable[Long]): Int = {
    if (values.isEmpty) 1
    else {
      val mean = values.map(_.toDouble).sum / values.size
      math.max(1, math.ceil(math.log(2.0) * (mean + 1.0)).toInt)
    }
  }

  def encodeOne(w: BitWriter, n: Long, m: Int): Unit = {
    require(n >= 0, s"Golomb requires non-negative values, got $n")
    require(m >= 1, s"Golomb parameter must be >= 1, got $m")
    val q = n / m
    val r = n % m
    w.writeUnary(q)
    // Truncated binary for r in [0, m): values < c use b-1 bits, rest use b.
    val b = ceilLog2(m)
    if (m == 1) () // no remainder bits
    else {
      val c = (1L << b) - m
      if (r < c) w.writeBits(r, b - 1)
      else w.writeBits(r + c, b)
    }
  }

  def decodeOne(rd: BitReader, m: Int): Long = {
    val q = rd.readUnary()
    val r =
      if (m == 1) 0L
      else {
        val b = ceilLog2(m)
        val c = (1L << b) - m
        val lo = rd.readBits(b - 1)
        if (lo < c) lo else (lo << 1 | (if (rd.readBit()) 1L else 0L)) - c
      }
    q * m + r
  }

  /** Encoded bit length without materialising the bitstream. */
  def bitLength(values: Seq[Long], m: Int): Long = {
    val b = ceilLog2(m)
    val c = (1L << b) - m
    values.map { n =>
      val q = n / m; val r = n % m
      val rem = if (m == 1) 0 else if (r < c) b - 1 else b
      q + 1 + rem
    }.sum
  }

  private def ceilLog2(m: Int): Int = {
    var b = 0
    while ((1L << b) < m) b += 1
    b
  }
}
