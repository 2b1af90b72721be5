package repro.gd

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String
import repro.util.ColumnName.quote

/** How a column maps between its original domain and the GD integer domain. */
sealed trait ColKind

/** Affine numeric encoding: gd = round(orig * scale) - minScaled, so
  * orig = (gd + minScaled) / scale. `scale` is a power of ten chosen so all
  * observed values become integral (float-to-int conversion, §3).
  */
final case class NumericCol(scale: Long, minScaled: Long) extends ColKind

/** Frequency-ranked dictionary encoding: the most common value gets code 0,
  * the second most common code 1, etc. (§3).
  */
final case class CategoricalCol(dict: Array[String]) extends ColKind {
  // Built on first use. A value that repeats has its first index as code.
  @transient private lazy val codes: Map[String, Int] =
    dict.indices.reverseIterator.map(c => dict(c) -> c).toMap

  /** The code of `value`: its index in `dict`, or -1 if it is not there. */
  def code(value: String): Int = codes.getOrElse(value, -1)
}

/** Per-column pre-processing spec — enough to transform query literals into
  * the GD domain (§5.1) and to inverse-transform query results.
  */
final case class ColumnSpec(name: String, kind: ColKind, nullCount: Long) {
  def isCategorical: Boolean = kind.isInstanceOf[CategoricalCol]

  /** Transform an original-domain literal to the GD domain. Categorical
    * literals not in the dictionary map to -1 (matches nothing).
    */
  def toGd(literal: Any): Double = kind match {
    case NumericCol(scale, minScaled) =>
      def rounded(v: Double) = math.rint(v * scale) - minScaled
      literal match {
        // An integral literal is shifted exactly in Long, as `Preprocess.apply`
        // shifts integral columns (a double holds integers only up to 2^53),
        // unless the product or the difference leaves a Long.
        case n @ (_: java.lang.Long | _: java.lang.Integer | _: java.lang.Short | _: java.lang.Byte) =>
          val x = n.asInstanceOf[Number].longValue
          try Math.subtractExact(Math.multiplyExact(x, scale), minScaled).toDouble
          catch { case _: ArithmeticException => rounded(x.toDouble) }
        case n: Number => rounded(n.doubleValue)
        case s: String => rounded(s.toDouble)
        case other     => throw new IllegalArgumentException(s"bad literal $other for numeric $name")
      }
    case c: CategoricalCol => c.code(literal.toString).toDouble
  }

  /** Inverse transform a GD-domain value back to the original domain.
    * Only meaningful for numeric columns (categorical results are decoded
    * via the dictionary).
    */
  def fromGd(v: Double): Double = kind match {
    case NumericCol(scale, minScaled) => (v + minScaled) / scale
    case CategoricalCol(_)            => v
  }

  /** Inverse of a GD-domain sum of `cnt` values (affine shift scales with
    * the number of terms).
    */
  def fromGdSum(sum: Double, cnt: Double): Double = kind match {
    case NumericCol(scale, minScaled) => (sum + cnt * minScaled) / scale
    case CategoricalCol(_)            => sum
  }

  /** Inverse of a GD-domain variance (affine shift cancels; scale squares). */
  def fromGdVar(variance: Double): Double = kind match {
    case NumericCol(scale, _) => variance / (scale.toDouble * scale)
    case CategoricalCol(_)    => variance
  }
}

/** GreedyGD pre-processing (§3): per-column, type-driven lossless transforms
  * producing a DataFrame of nullable LongType columns plus the specs needed
  * to move literals/results between domains. [[fit]] reads the frame once,
  * in one Spark job; [[apply]] is a projection, so the data streams through.
  */
object Preprocess {

  final case class Result(df: DataFrame, specs: Array[ColumnSpec], nRows: Long)

  /** Max decimal places probed during float-to-int conversion. */
  private val MaxDecimals = 6

  /** Largest GD value `fit` accepts. GreedyGD adds 1 to every value (0 is
    * its null code), and the sum must fit in a Long. Fractional columns are
    * computed in doubles, as `apply` does, and doubles between 2^62 and 2^63
    * step by 1024, so one step below the largest double under 2^63 leaves
    * room for that +1 and for `apply`'s HALF_UP `round` where `fit` uses
    * `rint`. Integral columns are computed exactly, against the same limit.
    */
  val MaxGd: Double = math.pow(2, 63) - 2048

  private val TwoTo63: Double = math.pow(2, 63)

  /** Most distinct values a string column may have; `fit` rejects more. */
  val MaxDictSize = 100000

  /** Largest magnitude of a GD value carried as a double: above 2^53 a
    * double skips integers.
    */
  private val MaxExactGd: Long = 1L << 53

  /** `v`, a GD value of `column`, as a double, where the builders and the
    * synopsis carry it.
    *
    * @throws IllegalArgumentException if `v` lies beyond ±2^53, where the
    *   double would round it
    */
  def exactDouble(v: Long, column: String): Double = {
    if (v > MaxExactGd || v < -MaxExactGd)
      throw new IllegalArgumentException(
        s"column $column holds GD value $v, beyond ±2^53; a double would round it")
    v.toDouble
  }

  /** `fit`, `apply`, and the row count that `fit`'s pass takes on the way. */
  def run(df: DataFrame): Result = {
    val (specs, nRows) = scan(df)
    Result(apply(df, specs), specs, nRows)
  }

  /** The spec of every column, from one Spark job with no shuffle: each
    * partition fills one [[ColStats]] per column, and the driver merges them
    * in partition order. For a string column the driver holds its value
    * counts, at most [[MaxDictSize]] + 1 per partition; for any other column
    * a few numbers.
    *
    * @throws IllegalArgumentException if a column has an unsupported type,
    *   a string column has more than [[MaxDictSize]] distinct values, a
    *   floating-point column holds NaN or an infinity, or a numeric column's
    *   scaled minimum lies outside a Long or its GD maximum exceeds [[MaxGd]]
    */
  def fit(df: DataFrame): Array[ColumnSpec] = scan(df)._1

  private def scan(df: DataFrame): (Array[ColumnSpec], Long) = {
    val fields = df.schema.fields
    val fresh = fields.map(statsOf)
    val (nRows, stats) = df.queryExecution.toRdd.mapPartitions { rows =>
      val s = fresh.map(_())
      var n = 0L
      rows.foreach { r =>
        n += 1
        var i = 0
        while (i < s.length) { if (!r.isNullAt(i)) s(i).add(r, i); i += 1 }
      }
      Iterator((n, s))
    }.collect().foldLeft((0L, fresh.map(_()))) { case ((n, acc), (m, s)) =>
      acc.indices.foreach(i => acc(i).merge(s(i)))
      (n + m, acc)
    }
    // Dictionary sizes are checked before any numeric rule, in column order.
    fields.zip(stats).foreach {
      case (f, s: StringStats) if s.counts.size > MaxDictSize =>
        throw new IllegalArgumentException(
          s"string column ${f.name} has at least ${s.counts.size} distinct values; " +
            s"dictionary encoding supports at most $MaxDictSize")
      case _ => ()
    }

    val specs = fields.zip(stats).map { case (f, st) =>
      def spanError(gdMax: Any) = new IllegalArgumentException(
        s"column ${f.name} spans $gdMax in the GD domain; GreedyGD needs its maximum plus one in a Long")
      val kind = st match {
        case s: StringStats => CategoricalCol(s.ranked)
        case s: LongStats =>
          val gdMax = BigInt(s.hi) - s.lo
          if (gdMax > BigInt(MaxGd.toLong)) throw spanError(gdMax)
          NumericCol(1, s.lo)
        case s: DoubleStats =>
          // x − rint(x) is NaN exactly when x is NaN or infinite.
          if (s.frac(0).isNaN)
            throw new IllegalArgumentException(
              s"column ${f.name} holds NaN or infinite values; GD encoding needs finite numbers")
          val p = (0 to MaxDecimals).find(p => s.frac(p) < 1e-6).getOrElse(MaxDecimals)
          val scale = math.pow(10, p).toLong
          val minScaled = math.rint(s.lo * scale)
          // `toLong` saturates, so a minimum outside [-2^63, 2^63) would
          // silently shift every GD value.
          if (!(minScaled >= -TwoTo63 && minScaled < TwoTo63))
            throw new IllegalArgumentException(
              s"column ${f.name} has scaled minimum $minScaled; the GD shift needs it in a Long")
          val gdMax = math.rint(s.hi * scale) - minScaled
          if (!(gdMax <= MaxGd)) throw spanError(gdMax)
          NumericCol(scale, minScaled.toLong)
      }
      ColumnSpec(f.name, kind, nRows - st.nonNull)
    }
    (specs, nRows)
  }

  /** One column's statistics over the non-null values of the rows seen. A
    * column with no value keeps min = max = 0 and rounding errors 0.
    */
  private sealed abstract class ColStats extends Serializable {
    var nonNull = 0L

    /** Adds the value at `row(i)`, which is not null. */
    def add(row: InternalRow, i: Int): Unit

    /** Adds the values `o` saw; `o` is of the same class. */
    def merge(o: ColStats): Unit
  }

  /** Min and max in Long: integral columns as they are, a date as its epoch
    * day, a timestamp as `unix_timestamp` gives it (epoch microseconds
    * divided by 10^6, truncated toward zero), a boolean as 0 or 1. A double
    * holds integers only up to 2^53.
    */
  private final class LongStats(read: (InternalRow, Int) => Long) extends ColStats {
    var lo = 0L
    var hi = 0L

    def add(row: InternalRow, i: Int): Unit = {
      val x = read(row, i)
      if (nonNull == 0 || x < lo) lo = x
      if (nonNull == 0 || x > hi) hi = x
      nonNull += 1
    }

    def merge(o: ColStats): Unit = {
      val s = o.asInstanceOf[LongStats]
      if (s.nonNull > 0) {
        if (nonNull == 0 || s.lo < lo) lo = s.lo
        if (nonNull == 0 || s.hi > hi) hi = s.hi
        nonNull += s.nonNull
      }
    }
  }

  /** Min, max and `frac(p)` = max |x·10^p − rint(x·10^p)| for p = 0..6, over
    * x as Spark casts the column to double. Values compare as in Spark's
    * `min` and `max`: NaN above everything and −0.0 equal to 0.0, so a NaN or
    * an infinity makes `frac(0)` NaN. `rint` and `apply`'s `round` differ
    * only at exact .5 ties, where both errors are 0.5.
    */
  private final class DoubleStats(read: (InternalRow, Int) => Double) extends ColStats {
    var lo = 0.0
    var hi = 0.0
    val frac = new Array[Double](MaxDecimals + 1)

    def add(row: InternalRow, i: Int): Unit = {
      val x = read(row, i)
      if (nonNull == 0 || compare(x, lo) < 0) lo = x
      if (nonNull == 0 || compare(x, hi) > 0) hi = x
      nonNull += 1
      var p = 0
      while (p <= MaxDecimals) {
        val scaled = x * Pow10(p)
        val err = math.abs(scaled - math.rint(scaled))
        if (compare(err, frac(p)) > 0) frac(p) = err
        p += 1
      }
    }

    def merge(o: ColStats): Unit = {
      val s = o.asInstanceOf[DoubleStats]
      if (s.nonNull > 0) {
        if (nonNull == 0 || compare(s.lo, lo) < 0) lo = s.lo
        if (nonNull == 0 || compare(s.hi, hi) > 0) hi = s.hi
        nonNull += s.nonNull
        for (p <- frac.indices) if (compare(s.frac(p), frac(p)) > 0) frac(p) = s.frac(p)
      }
    }
  }

  private val Pow10: Array[Double] = Array.tabulate(MaxDecimals + 1)(p => math.pow(10, p))

  /** Spark's order of doubles. */
  private def compare(x: Double, y: Double): Int = if (x == y) 0 else java.lang.Double.compare(x, y)

  /** A count per distinct value. Keys are copied out of the row, whose
    * buffer the scan reuses. Collecting stops once the column holds more
    * than [[MaxDictSize]] values: `fit` rejects it then.
    */
  private final class StringStats extends ColStats {
    val counts = new java.util.HashMap[UTF8String, Array[Long]]()

    def add(row: InternalRow, i: Int): Unit = {
      nonNull += 1
      if (counts.size <= MaxDictSize) {
        val v = row.getUTF8String(i)
        val c = counts.get(v)
        if (c == null) counts.put(v.clone(), Array(1L)) else c(0) += 1
      }
    }

    def merge(o: ColStats): Unit = {
      val s = o.asInstanceOf[StringStats]
      nonNull += s.nonNull
      val it = s.counts.entrySet.iterator
      while (it.hasNext && counts.size <= MaxDictSize) {
        val e = it.next()
        counts.merge(e.getKey, e.getValue, (a, b) => { a(0) += b(0); a })
      }
    }

    /** The values by descending count, ties in Spark's (UTF-8 byte) order. */
    def ranked: Array[String] =
      counts.entrySet.toArray(new Array[java.util.Map.Entry[UTF8String, Array[Long]]](0)).sortWith { (a, b) =>
        val ca = a.getValue()(0)
        val cb = b.getValue()(0)
        ca > cb || (ca == cb && a.getKey.binaryCompare(b.getKey) < 0)
      }.map(_.getKey.toString)
  }

  /** A maker of the statistics of column `f`, so the driver rejects an
    * unsupported type before any job starts.
    *
    * @throws IllegalArgumentException for an unsupported type
    */
  private def statsOf(f: StructField): () => ColStats = f.dataType match {
    case StringType     => () => new StringStats
    case ByteType       => () => new LongStats(_.getByte(_).toLong)
    case ShortType      => () => new LongStats(_.getShort(_).toLong)
    case IntegerType    => () => new LongStats(_.getInt(_).toLong)
    case LongType       => () => new LongStats(_.getLong(_))
    case DateType       => () => new LongStats(_.getInt(_).toLong)
    case TimestampType  => () => new LongStats(_.getLong(_) / 1000000L) // truncated, as `unix_timestamp`
    case BooleanType    => () => new LongStats((r, i) => if (r.getBoolean(i)) 1L else 0L)
    case FloatType      => () => new DoubleStats(_.getFloat(_).toDouble)
    case DoubleType     => () => new DoubleStats(_.getDouble(_))
    case t: DecimalType => () => new DoubleStats(_.getDecimal(_, t.precision, t.scale).toDouble)
    case other          => throw new IllegalArgumentException(s"unsupported type $other for ${f.name}")
  }

  /** Apply fitted specs: every column becomes a nullable LongType column in
    * the GD domain (missing values stay null; the null count lives in the
    * spec — the paper's "encoding missing values").
    */
  def apply(df: DataFrame, specs: Array[ColumnSpec]): DataFrame = {
    val fields = df.schema.fields
    val cols = fields.zip(specs).map { case (f, spec) =>
      spec.kind match {
        case NumericCol(scale, minScaled) if !isFractional(f.dataType) =>
          (numericAsLong(f).cast(LongType) * scale - minScaled).as(f.name)
        case NumericCol(scale, minScaled) =>
          (round(numericAsLong(f).cast(DoubleType) * scale) - minScaled).cast(LongType).as(f.name)
        case cat: CategoricalCol =>
          val fn = udf { (s: String) =>
            val c = if (s == null) -1 else cat.code(s)
            if (c < 0) None else Some(c.toLong)
          }
          fn(col(quote(f.name))).as(f.name)
      }
    }
    df.select(cols.toIndexedSeq: _*)
  }

  private def isFractional(t: DataType): Boolean = t match {
    case DoubleType | FloatType | _: DecimalType => true
    case _                                       => false
  }

  /** A non-string column as a numeric expression: dates become epoch days,
    * timestamps epoch seconds, booleans 0/1, and numbers stay as they are.
    *
    * @throws IllegalArgumentException for any other type
    */
  private def numericAsLong(f: StructField): Column = {
    val c = col(quote(f.name))
    f.dataType match {
      case DateType       => datediff(c, lit("1970-01-01").cast(DateType))
      case TimestampType  => unix_timestamp(c)
      case BooleanType    => c.cast(IntegerType)
      case _: NumericType => c
      case other          => throw new IllegalArgumentException(s"unsupported type $other for ${f.name}")
    }
  }
}
