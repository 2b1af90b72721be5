package repro.encoding

import java.io.{ByteArrayOutputStream, DataOutputStream, ByteArrayInputStream, DataInputStream}

import repro.core.{DimMeta, Hist1D, Hist2D, PairwiseHist}
import repro.gd.{CategoricalCol, ColumnSpec, NumericCol}

/** Binary synopsis encoding (§4.3, Fig 6).
  *
  * Midpoints and weighted-centre bounds are rederivable and never stored;
  * 2-d marginal metadata counts are row/column sums of the count matrix and
  * are likewise rederived at decode time. Each count matrix is stored
  * either densely (l_h bits per count, Eq 13) or sparsely (Golomb-coded
  * deltas between non-zero flat indices + Golomb-coded counts), whichever
  * is smaller — the binary flag I_h in Fig 6.
  */
object Codec {

  private val Magic = 0x5048 // "PH"

  final case class SizeBreakdown(params: Long, hist1d: Long, hist2d: Long, counts: Long) {
    def total: Long = params + hist1d + hist2d + counts
  }

  // ------------------------------------------------------------- encode ----

  def encode(ph: PairwiseHist): Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    val out = new DataOutputStream(bos)
    out.writeShort(Magic)
    out.writeByte(1)
    out.writeShort(ph.d)
    out.writeLong(ph.n)
    out.writeLong(ph.nS)
    out.writeLong(ph.m)
    out.writeDouble(ph.alpha)
    ph.specs.foreach(writeSpec(out, _))
    ph.nullCounts.foreach(writeVarLong(out, _))
    ph.hist1d.foreach(h => writeDim(out, h.meta))
    ph.hist1d.foreach(h => writeCountsVec(out, h.meta.counts))
    // Pairs in deterministic order. Per Eq 12, pair dimensions store only
    // their ADDITIONAL refined edges + metadata for bins that do not
    // coincide with a 1-d bin (those share the 1-d metadata).
    val pairKeys = ph.hist2d.keys.toSeq.sorted
    writeVarLong(out, pairKeys.size)
    pairKeys.foreach { case (i, j) =>
      out.writeShort(i); out.writeShort(j)
      val h2 = ph.hist2d((i, j))
      writePairDim(out, h2.metaI, ph.hist1d(i).meta)
      writePairDim(out, h2.metaJ, ph.hist1d(j).meta)
      writeMatrix(out, h2.counts)
    }
    out.flush()
    bos.toByteArray
  }

  def decode(bytes: Array[Byte]): PairwiseHist = {
    val in = new DataInputStream(new ByteArrayInputStream(bytes))
    require(in.readShort() == Magic, "bad magic")
    require(in.readByte() == 1, "bad version")
    val d = in.readShort().toInt
    val n = in.readLong()
    val nS = in.readLong()
    val m = in.readLong()
    val alpha = in.readDouble()
    val specs = Array.fill(d)(readSpec(in))
    val nullCounts = Array.fill(d)(readVarLong(in))
    val dims = Array.fill(d)(readDim(in))
    val hist1d = dims.zipWithIndex.map { case (dm0, i) =>
      Hist1D(i, dm0.copy(counts = readCountsVec(in, dm0.k)))
    }
    val nPairs = readVarLong(in).toInt
    val hist2d = (0 until nPairs).map { _ =>
      val i = in.readShort().toInt
      val j = in.readShort().toInt
      val metaI = readPairDim(in, hist1d(i).meta)
      val metaJ = readPairDim(in, hist1d(j).meta)
      val counts = readMatrix(in, metaI.k, metaJ.k)
      val margI = Array.tabulate(metaI.k)(t => counts(t).sum)
      val margJ = Array.tabulate(metaJ.k)(tj => counts.map(_(tj)).sum)
      (i, j) -> Hist2D(i, j, metaI.copy(counts = margI), metaJ.copy(counts = margJ), counts)
    }.toMap
    PairwiseHist(n, nS, m, alpha, specs, hist1d, hist2d, nullCounts)
  }

  /** Encoded size with an Eq-11-style breakdown (params / 1-d / 2-d / counts). */
  def measure(ph: PairwiseHist): SizeBreakdown = {
    def sized(f: DataOutputStream => Unit): Long = {
      val bos = new ByteArrayOutputStream(); val out = new DataOutputStream(bos)
      f(out); out.flush(); bos.size().toLong
    }
    val params = sized { out =>
      out.writeShort(Magic); out.writeByte(1); out.writeShort(ph.d)
      out.writeLong(ph.n); out.writeLong(ph.nS); out.writeLong(ph.m); out.writeDouble(ph.alpha)
      ph.specs.foreach(writeSpec(out, _))
      ph.nullCounts.foreach(writeVarLong(out, _))
    }
    val h1 = sized(out => ph.hist1d.foreach(h => writeDim(out, h.meta)))
    val h2 = sized { out =>
      ph.hist2d.toSeq.sortBy(_._1).foreach { case ((i, j), h) =>
        out.writeShort(0); out.writeShort(0)
        writePairDim(out, h.metaI, ph.hist1d(i).meta)
        writePairDim(out, h.metaJ, ph.hist1d(j).meta)
      }
    }
    val cnts = sized { out =>
      ph.hist1d.foreach(h => writeCountsVec(out, h.meta.counts))
      ph.hist2d.toSeq.sortBy(_._1).foreach { case (_, h) => writeMatrix(out, h.counts) }
    }
    SizeBreakdown(params, h1, h2, cnts)
  }

  def sizeBytes(ph: PairwiseHist): Long = encode(ph).length.toLong

  // --------------------------------------------------------------- parts ----

  private def writeSpec(out: DataOutputStream, spec: ColumnSpec): Unit = {
    out.writeUTF(spec.name)
    writeVarLong(out, spec.nullCount)
    spec.kind match {
      case NumericCol(scale, minScaled) =>
        out.writeByte(0); writeVarLong(out, scale); out.writeLong(minScaled)
      case CategoricalCol(dict) =>
        out.writeByte(1); writeVarLong(out, dict.length.toLong); dict.foreach(out.writeUTF)
    }
  }

  private def readSpec(in: DataInputStream): ColumnSpec = {
    val name = in.readUTF()
    val nulls = readVarLong(in)
    in.readByte() match {
      case 0 => ColumnSpec(name, NumericCol(readVarLong(in), in.readLong()), nulls)
      case 1 =>
        val len = readVarLong(in).toInt
        ColumnSpec(name, CategoricalCol(Array.fill(len)(in.readUTF())), nulls)
      case other => throw new IllegalStateException(s"bad kind tag $other")
    }
  }

  /** Dimension metadata: edges as doubles (refinement midpoints are dyadic
    * fractions), then per bin the unique count and — only for non-empty
    * bins — vMin/vMax as varlongs (actual GD integers). Empty bins fall
    * back to their edges, matching the builder's convention, so nothing is
    * stored for them. Counts are not written here: 1-d counts follow as
    * their own vector and pair marginals are re-derived from the matrix.
    */
  private def writeDim(out: DataOutputStream, dm: DimMeta): Unit = {
    writeVarLong(out, dm.k.toLong)
    dm.edges.foreach(out.writeDouble)
    var t = 0
    while (t < dm.k) {
      writeVarLong(out, dm.unique(t))
      if (dm.unique(t) > 0) {
        writeVarLong(out, math.rint(dm.vMin(t)).toLong)
        writeVarLong(out, math.rint(dm.vMax(t)).toLong)
      }
      t += 1
    }
  }

  private def readDim(in: DataInputStream): DimMeta = {
    val k = readVarLong(in).toInt
    val edges = Array.fill(k + 1)(in.readDouble())
    val vMin = new Array[Double](k)
    val vMax = new Array[Double](k)
    val uniq = new Array[Long](k)
    var t = 0
    while (t < k) {
      uniq(t) = readVarLong(in)
      if (uniq(t) > 0) {
        vMin(t) = readVarLong(in).toDouble
        vMax(t) = readVarLong(in).toDouble
      } else {
        vMin(t) = edges(t)
        vMax(t) = edges(t + 1)
      }
      t += 1
    }
    DimMeta(edges, vMin, vMax, uniq, new Array[Long](k))
  }

  /** Pair dimension (Eq 12): only refined edges beyond the 1-d histogram
    * plus metadata of bins that do not coincide with a 1-d bin. The builder
    * applies the same sharing ([[repro.core.Builder.shareDimMeta]]), so the
    * reconstruction is an exact round-trip.
    */
  private def writePairDim(out: DataOutputStream, dm: DimMeta, oneD: DimMeta): Unit = {
    val oneDEdges = oneD.edges.toSet
    val newEdges = dm.edges.filterNot(oneDEdges.contains)
    writeVarLong(out, newEdges.length.toLong)
    newEdges.foreach(out.writeDouble)
    val parentBins = (0 until oneD.k).map(t => (oneD.edges(t), oneD.edges(t + 1))).toSet
    var t = 0
    while (t < dm.k) {
      if (!parentBins.contains((dm.edges(t), dm.edges(t + 1)))) {
        writeVarLong(out, dm.unique(t))
        if (dm.unique(t) > 0) {
          writeVarLong(out, math.rint(dm.vMin(t)).toLong)
          writeVarLong(out, math.rint(dm.vMax(t)).toLong)
        }
      }
      t += 1
    }
  }

  private def readPairDim(in: DataInputStream, oneD: DimMeta): DimMeta = {
    val nNew = readVarLong(in).toInt
    val newEdges = Array.fill(nNew)(in.readDouble())
    val edges = (oneD.edges ++ newEdges).distinct.sorted
    val k = edges.length - 1
    val parentBins = (0 until oneD.k).map(t => (oneD.edges(t), oneD.edges(t + 1)) -> t).toMap
    val vMin = new Array[Double](k)
    val vMax = new Array[Double](k)
    val uniq = new Array[Long](k)
    var t = 0
    while (t < k) {
      parentBins.get((edges(t), edges(t + 1))) match {
        case Some(p) =>
          vMin(t) = oneD.vMin(p); vMax(t) = oneD.vMax(p); uniq(t) = oneD.unique(p)
        case None =>
          uniq(t) = readVarLong(in)
          if (uniq(t) > 0) {
            vMin(t) = readVarLong(in).toDouble
            vMax(t) = readVarLong(in).toDouble
          } else {
            vMin(t) = edges(t)
            vMax(t) = edges(t + 1)
          }
      }
      t += 1
    }
    DimMeta(edges, vMin, vMax, uniq, new Array[Long](k))
  }

  /** 1-d count vector: dense bit-packed (Eq 13) vs sparse Golomb — smaller wins. */
  private def writeCountsVec(out: DataOutputStream, counts: Array[Long]): Unit =
    writeCountsFlat(out, counts)

  private def readCountsVec(in: DataInputStream, k: Int): Array[Long] =
    readCountsFlat(in, k)

  private def writeMatrix(out: DataOutputStream, counts: Array[Array[Long]]): Unit =
    writeCountsFlat(out, counts.flatten)

  private def readMatrix(in: DataInputStream, kI: Int, kJ: Int): Array[Array[Long]] = {
    val flat = readCountsFlat(in, kI * kJ)
    Array.tabulate(kI)(ti => flat.slice(ti * kJ, (ti + 1) * kJ))
  }

  private def writeCountsFlat(out: DataOutputStream, flat: Array[Long]): Unit = {
    val maxC = if (flat.isEmpty) 0L else flat.max
    val lh = math.max(1, 64 - java.lang.Long.numberOfLeadingZeros(maxC)) // Eq 13: ceil(log2(1+max))
    val denseBits = flat.length.toLong * lh

    val nz = flat.zipWithIndex.filter(_._1 != 0)
    val deltas = nz.map(_._2.toLong).foldLeft((List.empty[Long], -1L)) { case ((acc, prev), idx) =>
      ((idx - prev - 1) :: acc, idx)
    }._1.reverse
    val values = nz.map(_._1 - 1) // counts are >= 1 at non-zero cells
    val mD = Golomb.chooseM(deltas)
    val mV = Golomb.chooseM(values.toSeq)
    val sparseBits =
      if (nz.isEmpty) 0L
      else Golomb.bitLength(deltas, mD) + Golomb.bitLength(values.toIndexedSeq, mV)
    // sparse header cost: theta + two m params (~10 bytes)
    val useSparse = nz.length < flat.length / 2 && sparseBits + 80 < denseBits

    out.writeBoolean(useSparse) // Fig 6's I_h flag
    if (useSparse) {
      writeVarLong(out, nz.length.toLong)
      writeVarLong(out, mD.toLong)
      writeVarLong(out, mV.toLong)
      val w = new BitWriter
      deltas.foreach(Golomb.encodeOne(w, _, mD))
      values.foreach(Golomb.encodeOne(w, _, mV))
      val payload = w.toBytes
      writeVarLong(out, payload.length.toLong)
      out.write(payload)
    } else {
      out.writeByte(lh)
      val w = new BitWriter
      flat.foreach(w.writeBits(_, lh))
      val payload = w.toBytes
      writeVarLong(out, payload.length.toLong)
      out.write(payload)
    }
  }

  private def readCountsFlat(in: DataInputStream, k: Int): Array[Long] = {
    val sparse = in.readBoolean()
    if (sparse) {
      val theta = readVarLong(in).toInt
      val mD = readVarLong(in).toInt
      val mV = readVarLong(in).toInt
      val len = readVarLong(in).toInt
      val payload = new Array[Byte](len)
      in.readFully(payload)
      val rd = new BitReader(payload)
      val deltas = Array.fill(theta)(Golomb.decodeOne(rd, mD))
      val values = Array.fill(theta)(Golomb.decodeOne(rd, mV))
      val out = new Array[Long](k)
      var idx = -1L
      var q = 0
      while (q < theta) {
        idx += deltas(q) + 1
        out(idx.toInt) = values(q) + 1
        q += 1
      }
      out
    } else {
      val lh = in.readByte().toInt
      val len = readVarLong(in).toInt
      val payload = new Array[Byte](len)
      in.readFully(payload)
      val rd = new BitReader(payload)
      Array.fill(k)(rd.readBits(lh))
    }
  }

  // -------------------------------------------------------------- varint ----

  private[encoding] def writeVarLong(out: DataOutputStream, v0: Long): Unit = {
    require(v0 >= 0, s"varlong requires non-negative, got $v0")
    var v = v0
    while ((v & ~0x7fL) != 0) {
      out.writeByte(((v & 0x7f) | 0x80).toInt)
      v >>>= 7
    }
    out.writeByte(v.toInt)
  }

  private[encoding] def readVarLong(in: DataInputStream): Long = {
    var v = 0L
    var shift = 0
    var b = 0
    do {
      b = in.readUnsignedByte()
      v |= (b & 0x7fL) << shift
      shift += 7
    } while ((b & 0x80) != 0)
    v
  }
}
