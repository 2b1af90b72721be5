package repro.encoding

import java.io.{ByteArrayOutputStream, DataOutputStream, ByteArrayInputStream, DataInputStream}

import repro.core.{DimMeta, Hist1D, Hist2D, PairwiseHist}
import repro.gd.{CategoricalCol, ColumnSpec, NumericCol}

/** Binary synopsis encoding (§4.3, Fig 6).
  *
  * One writer defines the layout, in this order: parameters (header, column
  * specs, null counts); every 1-d dimension's edges and bin metadata; every
  * 1-d count vector; the number of pairs; then per pair, in key order, its
  * column indices, both dimensions and its count matrix. [[encode]] keeps
  * the bytes and [[measure]] the section sizes of that same pass, so the
  * breakdown always sums to the encoded size.
  *
  * Midpoints and weighted-centre bounds are rederivable and never stored.
  * A pair dimension stores only the edges that refinement added and the
  * metadata of the bins that [[repro.core.DimMeta.sharedBins]] does not
  * share with a 1-d bin (Eq 12); 2-d marginal counts are rederived from the
  * count matrix. Each count vector or matrix is stored either densely (l_h
  * bits per count, Eq 13) or sparsely (Golomb-coded deltas between non-zero
  * flat indices + Golomb-coded counts), whichever is smaller — the binary
  * flag I_h in Fig 6.
  */
object Codec {

  private val Magic = 0x5048 // "PH"
  private val Version = 1

  final case class SizeBreakdown(params: Long, hist1d: Long, hist2d: Long, counts: Long) {
    def total: Long = params + hist1d + hist2d + counts
  }

  def encode(ph: PairwiseHist): Array[Byte] = write(ph)._1

  /** Encoded size with an Eq-11-style breakdown (params / 1-d / 2-d / counts). */
  def measure(ph: PairwiseHist): SizeBreakdown = write(ph)._2

  /** The layout: writes `ph` once and tallies the bytes of each section. */
  private def write(ph: PairwiseHist): (Array[Byte], SizeBreakdown) = {
    val bos = new ByteArrayOutputStream()
    val out = new DataOutputStream(bos)
    val sizes = new Array[Long](4) // params, 1-d, 2-d, counts
    var mark = 0
    def tally(section: Int): Unit = { sizes(section) += out.size() - mark; mark = out.size() }

    out.writeShort(Magic)
    out.writeByte(Version)
    out.writeShort(ph.d)
    out.writeLong(ph.n)
    out.writeLong(ph.nS)
    out.writeLong(ph.m)
    out.writeDouble(ph.alpha)
    ph.specs.foreach(writeSpec(out, _))
    ph.nullCounts.foreach(writeVarLong(out, _))
    tally(0)
    ph.hist1d.foreach { h =>
      writeVarLong(out, h.k.toLong)
      h.meta.edges.foreach(out.writeDouble)
      writeBins(out, h.meta, Array.fill(h.k)(-1))
    }
    tally(1)
    ph.hist1d.foreach(h => writeCounts(out, h.meta.counts))
    tally(3)
    val pairKeys = ph.hist2d.keys.toSeq.sorted
    writeVarLong(out, pairKeys.size.toLong)
    tally(2)
    pairKeys.foreach { case (i, j) =>
      val h2 = ph.hist2d((i, j))
      out.writeShort(i); out.writeShort(j)
      writePairDim(out, h2.metaI, ph.hist1d(i).meta)
      writePairDim(out, h2.metaJ, ph.hist1d(j).meta)
      tally(2)
      writeCounts(out, h2.counts.flatten)
      tally(3)
    }
    out.flush()
    (bos.toByteArray, SizeBreakdown(sizes(0), sizes(1), sizes(2), sizes(3)))
  }

  def decode(bytes: Array[Byte]): PairwiseHist = {
    val in = new DataInputStream(new ByteArrayInputStream(bytes))
    require(in.readShort() == Magic, "bad magic")
    require(in.readByte() == Version, "bad version")
    val d = in.readShort().toInt
    val n = in.readLong()
    val nS = in.readLong()
    val m = in.readLong()
    val alpha = in.readDouble()
    val specs = Array.fill(d)(readSpec(in))
    val nullCounts = Array.fill(d)(readVarLong(in))
    val dims = Array.fill(d) {
      val dm = emptyBins(Array.fill(readVarLong(in).toInt + 1)(in.readDouble()))
      readBins(in, dm, Array.fill(dm.k)(-1))
      dm
    }
    val hist1d = dims.zipWithIndex.map { case (dm, i) => Hist1D(i, dm.copy(counts = readCounts(in, dm.k))) }
    val nPairs = readVarLong(in).toInt
    val hist2d = (0 until nPairs).map { _ =>
      val i = in.readShort().toInt
      val j = in.readShort().toInt
      val metaI = readPairDim(in, hist1d(i).meta)
      val metaJ = readPairDim(in, hist1d(j).meta)
      val flat = readCounts(in, metaI.k * metaJ.k)
      val counts = Array.tabulate(metaI.k)(ti => flat.slice(ti * metaJ.k, (ti + 1) * metaJ.k))
      (i, j) -> Hist2D.withMarginals(i, j, metaI, metaJ, counts)
    }.toMap
    PairwiseHist(n, nS, m, alpha, specs, hist1d, hist2d, nullCounts)
  }

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

  /** Bin metadata of every bin `t` with `shared(t) < 0`: the unique count
    * and — only for non-empty bins — vMin/vMax as varlongs (actual GD
    * integers). Empty bins fall back to their edges, matching the builder's
    * convention, so nothing more is stored for them. Edges are doubles
    * (refinement midpoints are dyadic fractions) written by the caller.
    */
  private def writeBins(out: DataOutputStream, dm: DimMeta, shared: Array[Int]): Unit =
    for (t <- 0 until dm.k if shared(t) < 0) {
      writeVarLong(out, dm.unique(t))
      if (dm.unique(t) > 0) {
        writeVarLong(out, math.rint(dm.vMin(t)).toLong)
        writeVarLong(out, math.rint(dm.vMax(t)).toLong)
      }
    }

  /** Reads what [[writeBins]] wrote into the bins of `dm` it names. */
  private def readBins(in: DataInputStream, dm: DimMeta, shared: Array[Int]): Unit =
    for (t <- 0 until dm.k if shared(t) < 0) {
      dm.unique(t) = readVarLong(in)
      if (dm.unique(t) > 0) {
        dm.vMin(t) = readVarLong(in).toDouble
        dm.vMax(t) = readVarLong(in).toDouble
      }
    }

  /** Metadata on `edges` with every bin empty and zero counts. */
  private def emptyBins(edges: Array[Double]): DimMeta = {
    val k = edges.length - 1
    DimMeta(edges, edges.init, edges.tail, new Array[Long](k), new Array[Long](k))
  }

  /** Pair dimension (Eq 12): the edges that are not 1-d edges, then the
    * bins that do not share a 1-d bin's metadata.
    */
  private def writePairDim(out: DataOutputStream, dm: DimMeta, oneD: DimMeta): Unit = {
    val added = dm.edges.filter(e => java.util.Arrays.binarySearch(oneD.edges, e) < 0)
    writeVarLong(out, added.length.toLong)
    added.foreach(out.writeDouble)
    writeBins(out, dm, dm.sharedBins(oneD))
  }

  private def readPairDim(in: DataInputStream, oneD: DimMeta): DimMeta = {
    val added = Array.fill(readVarLong(in).toInt)(in.readDouble())
    val dm = emptyBins((oneD.edges ++ added).sorted)
    readBins(in, dm, dm.sharedBins(oneD))
    dm.shareWith(oneD)
  }

  private def writeCounts(out: DataOutputStream, flat: Array[Long]): Unit = {
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

  private def readCounts(in: DataInputStream, k: Int): Array[Long] = {
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
