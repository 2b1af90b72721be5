package repro.gd

import java.util.concurrent.ConcurrentHashMap

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType
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
  * DataFrame.
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

  final case class Compressed(
      bases: DataFrame, // base_id + one masked column per input column
      deviations: DataFrame, // base_id + one low-bits column per input column
      config: Config,
      nBases: Long,
      nRows: Long
  ) {

    /** Estimated compressed size in bytes ([[Config.storageBytes]]). */
    def compressedBytes: Long = config.storageBytes(nBases, nRows)

    /** Uncompressed fixed-width size the compression is measured against. */
    def originalBytes: Long = nRows * config.totalBits.map(ceilDiv(_, 8).toLong).sum

    def ratio: Double = originalBytes.toDouble / compressedBytes

    private val seedMemo = new ConcurrentHashMap[Int, Map[String, Array[Double]]]()

    /** Per-column seeds under `cap`, computed for every column at once on
      * first use (see [[distinctBases]]) and memoised per cap.
      */
    private[gd] def baseSeeds(cap: Int): Map[String, Array[Double]] =
      seedMemo.computeIfAbsent(cap, c => distinctBases(bases, c))

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
      val seen = new java.util.HashSet[java.util.List[java.lang.Long]]()
      shifted.foreach { row =>
        val key = new java.util.ArrayList[java.lang.Long](d)
        var c = 0
        while (c < d) { key.add(row(c) & config.baseMask(c)); c += 1 }
        seen.add(key)
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
    * given config. All heavy lifting is DataFrame dataflow: masking is a
    * projection; base dedup is a distinct + id assignment.
    */
  def compress(df: DataFrame, config: Config, nRows: Long): Compressed = {
    val cols = df.columns
    val shifted = df.select(cols.map(c => coalesce(col(quote(c)) + 1L, lit(0L)).as(c)).toIndexedSeq: _*)

    // Project base (masked MSBs) and deviation (low bits) side by side.
    val projected = shifted.select(
      (cols.zipWithIndex.map { case (c, i) =>
        bitwiseAnd(col(quote(c)), config.baseMask(i)).as(s"__b_$c")
      } ++ cols.zipWithIndex.map { case (c, i) =>
        bitwiseAnd(col(quote(c)), ~config.baseMask(i)).as(s"__d_$c")
      }).toIndexedSeq: _*
    )
    val bases = projected
      .select(cols.map(c => col(quote(s"__b_$c")).as(c)).toIndexedSeq: _*)
      .distinct()
      .withColumn("gd_base_id", monotonically_increasing_id())
      .cache()
    val nBases = bases.count()
    val deviations = projected
      .join(
        bases,
        cols.map(c => projected(quote(s"__b_$c")) === bases(quote(c))).reduce(_ && _)
      )
      .select((Seq(col("gd_base_id")) ++ cols.map(c => col(quote(s"__d_$c")).as(c))).toIndexedSeq: _*)
    Compressed(bases, deviations, config, nBases, nRows)
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
    * Reads the memo on `compressed`, so calling this for every column costs
    * one Spark query in total.
    */
  def baseValues(compressed: Compressed, column: String, maxValues: Int = SeedCap): Array[Double] =
    compressed.baseSeeds(maxValues)(column)

  /** [[baseValues]] of every column, keyed by column index in `specs`. */
  def seeds(compressed: Compressed, specs: Array[ColumnSpec]): Map[Int, Array[Double]] =
    specs.indices.map(i => i -> baseValues(compressed, specs(i).name)).toMap

  /** Distinct non-null base values of every column of a base table, in one
    * Spark query. A column with `n > cap` of them keeps the value at rank `r`
    * (0-based, ascending) when `r * cap / n` starts a new integer, i.e.
    * exactly `cap` values evenly spaced in rank, whatever the partitioning.
    */
  private[gd] def distinctBases(bases: DataFrame, cap: Int): Map[String, Array[Double]] = {
    val cols = bases.columns.filterNot(_ == "gd_base_id")
    val byIdx = Window.partitionBy("idx").orderBy("v")
    val wholeIdx = byIdx.rowsBetween(Window.unboundedPreceding, Window.unboundedFollowing)
    val picked = bases
      .select(explode(array(cols.zipWithIndex.map { case (c, i) =>
        struct(lit(i).as("idx"), col(quote(c)).as("v"))
      }.toIndexedSeq: _*)).as("e"))
      .select("e.idx", "e.v")
      .filter(col("v") > 0L) // 0 is the shifted null
      .repartition(col("idx")) // one shuffle serves both the distinct and the window
      .distinct()
      .withColumn("r", row_number().over(byIdx) - 1L)
      .withColumn("n", count(lit(1)).over(wholeIdx))
      .filter(col("n") <= cap || col("r") === 0L || expr(s"(r * $cap) div n > ((r - 1) * $cap) div n"))
      .select("idx", "v")
      .collect()
    val byCol = picked.groupBy(_.getInt(0))
    cols.indices.map { i =>
      val shifted = byCol.getOrElse(i, Array.empty).map(_.getLong(1)).sorted
      cols(i) -> shifted.map(v => (v - 1L).toDouble) // undo the +1 null shift
    }.toMap
  }

  private def ceilDiv(a: Int, b: Int): Int = (a + b - 1) / b

  /** Bitwise AND helper for a column against a literal mask. */
  private def bitwiseAnd(c: org.apache.spark.sql.Column, mask: Long) =
    c.bitwiseAND(lit(mask))
}
