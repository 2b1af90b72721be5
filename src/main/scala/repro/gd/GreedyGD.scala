package repro.gd

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import repro.util.ColumnName.quote

/** Generalized Deduplication with greedy base-bit selection (GreedyGD, [8]).
  *
  * Each row (a "chunk") is split per column into a base part (the most
  * significant bits) and a deviation part (the remaining low bits). Bases
  * are deduplicated into a base table; deviations are stored verbatim with
  * an ID linking them to their base (Fig 3). Compression wins when few
  * distinct bases cover many rows.
  *
  * The deviation bit-widths are chosen greedily: starting from all bits in
  * the base, repeatedly move `BitStep` bits of one column into the deviation
  * if that reduces the estimated storage, until no move helps. The search
  * runs on a collected sample (bit selection is a statistics problem, not a
  * data-volume problem); the chosen split is then applied to the full
  * DataFrame. [[run]] is three Spark jobs: the row count, the sample, and
  * one pass that dedups the bases. The driver holds the sample and the base
  * table; the seeds are read from the latter with no further job.
  *
  * Nulls are encoded internally as value 0 with all data shifted +1, so the
  * base/deviation split is total and lossless.
  */
object GreedyGD {

  /** Bits moved to the deviation per greedy step. */
  val BitStep = 4

  /** Most seeds kept per column. Algorithm 1 downsamples seeds to
    * ceil(Ns/M) anyway, so more than a few thousand would only burn driver
    * memory.
    */
  val SeedCap = 10000

  final case class Config(devBits: Array[Int], totalBits: Array[Int]) {
    def baseMask(c: Int): Long = if (devBits(c) >= 63) 0L else -1L << devBits(c)

    /** Storage in bytes of `nRows` rows over `nBases` distinct bases:
      * deduplicated base table + per-row deviations + per-row base IDs.
      */
    def storageBytes(nBases: Long, nRows: Long): Long = {
      val baseBits = totalBits.zip(devBits).map { case (t, d) => math.max(0, t - d) }.sum
      val idBits = math.max(1, 64 - java.lang.Long.numberOfLeadingZeros(math.max(1L, nBases - 1)))
      nBases * ceilDiv(baseBits, 8) + nRows * (ceilDiv(devBits.sum, 8) + ceilDiv(idBits, 8))
    }
  }

  /** `baseRows` is the base table on the driver: the distinct masked,
    * +1-shifted rows in ascending order, row r having `gd_base_id` r in
    * `bases`.
    */
  final case class Compressed(
      bases: DataFrame, // one masked column per input column + gd_base_id
      deviations: DataFrame, // base_id + one low-bits column per input column
      config: Config,
      nBases: Long,
      nRows: Long,
      baseRows: Array[Array[Long]]
  ) {

    /** Estimated compressed size in bytes ([[Config.storageBytes]]). */
    def compressedBytes: Long = config.storageBytes(nBases, nRows)

    /** Uncompressed fixed-width size the compression is measured against. */
    def originalBytes: Long = nRows * config.totalBits.map(ceilDiv(_, 8).toLong).sum

    def ratio: Double = originalBytes.toDouble / compressedBytes

    /** The distinct non-null base values of column `c` in the GD domain,
      * ascending, read from [[baseRows]] with no Spark job. A column with
      * `n > cap` of them keeps the value at rank `r` (0-based) when
      * `r * cap / n` starts a new integer: exactly `cap` values, evenly spaced
      * in rank.
      *
      * @throws IllegalArgumentException if a value lies beyond ±2^53
      */
    private[gd] def baseSeeds(c: Int, cap: Int): Array[Double] = {
      val name = bases.columns(c)
      val vs = baseRows.iterator.map(_(c)).filter(_ > 0L).toArray.distinct.sorted // 0 is the shifted null
      val n = vs.length.toLong
      val kept = if (n <= cap) vs else vs.indices.filter(r => r == 0 || r.toLong * cap / n > (r - 1L) * cap / n).map(vs).toArray
      kept.map(v => Preprocess.exactDouble(v - 1L, name)) // undo the +1 null shift
    }

    /** Lossless reconstruction: join deviations to bases and OR the parts. */
    def decompress(columns: Array[String]): DataFrame = {
      val joined = deviations.alias("d").join(bases.alias("b"), "gd_base_id")
      val cols = columns.map { c =>
        // shifted-by-one null encoding: 0 means null
        val v = col(s"b.${quote(c)}") + col(s"d.${quote(c)}")
        when(v === 0L, lit(null).cast(LongType)).otherwise(v - 1L).as(c)
      }
      joined.select(cols.toIndexedSeq: _*)
    }
  }

  /** Greedy deviation-bit search on a local sample (rows of GD-domain values,
    * null as -1 before shifting). `sample(r)(c)` is row r, column c.
    */
  def chooseConfig(sample: Array[Array[Long]], d: Int): Config = {
    require(sample.nonEmpty, "empty sample")
    val shifted = sample.map(row => row.map(v => if (v < 0) 0L else v + 1L))
    val totalBits = Array.tabulate(d) { c =>
      val mx = shifted.map(_(c)).max
      math.max(1, 64 - java.lang.Long.numberOfLeadingZeros(math.max(1L, mx)))
    }

    def cost(dev: Array[Int]): Long = {
      val config = Config(dev, totalBits)
      val masks = Array.tabulate(d)(config.baseMask)
      val seen = new RowSet(d)
      val key = new Array[Long](d)
      shifted.foreach { row =>
        var c = 0
        while (c < d) { key(c) = row(c) & masks(c); c += 1 }
        seen.add(key, 0)
      }
      config.storageBytes(seen.size, shifted.length)
    }

    // Grow the base from empty, as GreedyGD [8] does: start with every bit
    // in the deviation (one base, maximal dedup) and greedily move MSB
    // chunks of a column INTO the base while that lowers storage. Growing
    // from the other end (shrinking a full base) gets stuck immediately on
    // data with several high-entropy columns: no single removal breaks row
    // distinctness, so no move ever looks profitable.
    val devBits = totalBits.clone()

    var best = cost(devBits)
    var improved = true
    while (improved) {
      improved = false
      var bestCol = -1
      var bestBits = 0
      var bestCost = best
      var c = 0
      while (c < d) {
        // Candidate moves: promote BitStep MSBs, or the whole column.
        val steps = Seq(math.min(BitStep, devBits(c)), devBits(c)).filter(_ > 0).distinct
        steps.foreach { s =>
          val trial = devBits.clone()
          trial(c) = trial(c) - s
          val tc = cost(trial)
          if (tc < bestCost) { bestCost = tc; bestCol = c; bestBits = s }
        }
        c += 1
      }
      if (bestCol >= 0) {
        devBits(bestCol) -= bestBits
        best = bestCost
        improved = true
      }
    }
    Config(devBits, totalBits)
  }

  /** Compress a GD-domain DataFrame (nullable LongType columns) with the
    * given config. The base table comes from one Spark job with no shuffle:
    * each partition dedups its masked, +1-shifted rows into a [[RowSet]], and
    * the driver merges the sets. So the driver holds nBases × d longs: GD's
    * dictionary, the part [[Config.storageBytes]] already counts. `bases` is
    * a DataFrame over those rows; `deviations` stays a lazy join with it.
    */
  def compress(df: DataFrame, config: Config, nRows: Long): Compressed = {
    val cols = df.columns
    require(df.schema.forall(_.dataType == LongType), s"GreedyGD needs LongType columns: ${df.schema.simpleString}")
    val d = cols.length
    val masks = Array.tabulate(d)(config.baseMask)
    val merged = new RowSet(d)
    df.queryExecution.toRdd.mapPartitions { rows =>
      val set = new RowSet(d)
      val key = new Array[Long](d)
      rows.foreach { r =>
        var c = 0
        while (c < d) { key(c) = (if (r.isNullAt(c)) 0L else r.getLong(c) + 1L) & masks(c); c += 1 }
        set.add(key, 0)
      }
      Iterator(set.packed)
    }.collect().foreach(merged.addAll)
    val baseRows = merged.sorted
    val schema = StructType((cols :+ "gd_base_id").map(StructField(_, LongType, nullable = false)))
    val bases = df.sparkSession.createDataFrame(
      java.util.Arrays.asList(baseRows.indices.map(id => Row.fromSeq(baseRows(id).toSeq :+ id.toLong)): _*),
      schema)

    // Project base (masked MSBs) and deviation (low bits) side by side.
    val shifted = df.select(cols.map(c => coalesce(col(quote(c)) + 1L, lit(0L)).as(c)).toIndexedSeq: _*)
    val projected = shifted.select(
      (cols.zipWithIndex.map { case (c, i) =>
        bitwiseAnd(col(quote(c)), masks(i)).as(s"__b_$c")
      } ++ cols.zipWithIndex.map { case (c, i) =>
        bitwiseAnd(col(quote(c)), ~masks(i)).as(s"__d_$c")
      }).toIndexedSeq: _*
    )
    val deviations = projected
      .join(
        bases,
        cols.map(c => projected(quote(s"__b_$c")) === bases(quote(c))).reduce(_ && _)
      )
      .select((Seq(col("gd_base_id")) ++ cols.map(c => col(quote(s"__d_$c")).as(c))).toIndexedSeq: _*)
    Compressed(bases, deviations, config, baseRows.length.toLong, nRows, baseRows)
  }

  /** End-to-end: choose a config from a sample of `df`, then compress. */
  def run(df: DataFrame, sampleRows: Int, seed: Long = 7): Compressed = {
    val d = df.columns.length
    val nRows = df.count()
    val local = repro.util.Sampling
      .collectRows(df, sampleRows, seed, nRows)
      .map(r => Array.tabulate(d)(c => if (r.isNullAt(c)) -1L else r.getLong(c)))
    compress(df, chooseConfig(local, d), nRows)
  }

  /** Distinct base values of `column` in the GD domain (null base dropped),
    * sorted: the seeds for PairwiseHist initial bin edges (§3). A column with
    * more than `maxValues` of them keeps `maxValues`, evenly spaced in rank.
    * Reads the base table on the driver, so it runs no Spark job.
    *
    * @throws IllegalArgumentException if a value lies beyond ±2^53
    */
  def baseValues(compressed: Compressed, column: String, maxValues: Int = SeedCap): Array[Double] = {
    val c = compressed.bases.columns.indexOf(column)
    require(c >= 0 && column != "gd_base_id", s"no column $column")
    compressed.baseSeeds(c, maxValues)
  }

  /** [[baseValues]] of every column, keyed by column index in `specs`. */
  def seeds(compressed: Compressed, specs: Array[ColumnSpec]): Map[Int, Array[Double]] =
    specs.indices.map(i => i -> baseValues(compressed, specs(i).name)).toMap

  private def ceilDiv(a: Int, b: Int): Int = (a + b - 1) / b

  /** Bitwise AND helper for a column against a literal mask. */
  private def bitwiseAnd(c: org.apache.spark.sql.Column, mask: Long) =
    c.bitwiseAND(lit(mask))
}

/** A set of rows of `d` longs each, stored one after another in one array
  * and indexed by open addressing: GreedyGD's base dedup, both on a sample
  * and in every partition, with no object per row.
  */
private[gd] final class RowSet(d: Int) {
  private var rows = new Array[Long](16 * math.max(1, d))
  private var slots = Array.fill(32)(-1) // row number, or -1 for empty
  private var n = 0

  def size: Int = n

  /** Adds `a(off until off + d)` unless an equal row is in the set. */
  def add(a: Array[Long], off: Int): Unit = {
    var s = hash(a, off) & (slots.length - 1)
    while (slots(s) >= 0) {
      if (equal(slots(s), a, off)) return
      s = (s + 1) & (slots.length - 1)
    }
    if ((n + 1) * d > rows.length) rows = java.util.Arrays.copyOf(rows, 2 * rows.length)
    System.arraycopy(a, off, rows, n * d, d)
    slots(s) = n
    n += 1
    if (2 * n > slots.length) rehash()
  }

  /** Adds every row of a [[packed]] array. */
  def addAll(packed: Array[Long]): Unit = {
    var off = 0
    while (off < packed.length) { add(packed, off); off += d }
  }

  /** The rows, one after another, in the order they were added. */
  def packed: Array[Long] = java.util.Arrays.copyOf(rows, n * d)

  /** The rows in ascending lexicographic order. */
  def sorted: Array[Array[Long]] = {
    val out = Array.tabulate(n)(r => java.util.Arrays.copyOfRange(rows, r * d, (r + 1) * d))
    java.util.Arrays.sort(out, (x: Array[Long], y: Array[Long]) => java.util.Arrays.compare(x, y))
    out
  }

  private def equal(r: Int, a: Array[Long], off: Int): Boolean = {
    var c = 0
    while (c < d && rows(r * d + c) == a(off + c)) c += 1
    c == d
  }

  private def hash(a: Array[Long], off: Int): Int = {
    var h = 0x9E3779B97F4A7C15L
    var c = 0
    while (c < d) {
      h = (h ^ a(off + c)) * 0xBF58476D1CE4E5B9L
      h ^= h >>> 31
      c += 1
    }
    (h ^ (h >>> 32)).toInt
  }

  private def rehash(): Unit = {
    slots = Array.fill(2 * slots.length)(-1)
    var r = 0
    while (r < n) {
      var s = hash(rows, r * d) & (slots.length - 1)
      while (slots(s) >= 0) s = (s + 1) & (slots.length - 1)
      slots(s) = r
      r += 1
    }
  }
}
