package repro.gd

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
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
  * to move literals/results between domains. Implemented as DataFrame
  * aggregations + projections so arbitrarily large inputs stream through.
  */
object Preprocess {

  final case class Result(df: DataFrame, specs: Array[ColumnSpec])

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

  def run(df: DataFrame): Result = {
    val specs = fit(df)
    Result(apply(df, specs), specs)
  }

  /** Two Spark queries whatever the width of `df`: one aggregation for the
    * numeric stats and null counts, and one for the frequency-ranked
    * dictionaries of all string columns (see [[dictionaries]]).
    *
    * @throws IllegalArgumentException if a column has an unsupported type,
    *   a string column has more than [[MaxDictSize]] distinct values, a
    *   floating-point column holds NaN or an infinity, or a numeric column's
    *   scaled minimum lies outside a Long or its GD maximum exceeds [[MaxGd]]
    */
  def fit(df: DataFrame): Array[ColumnSpec] = {
    val fields = df.schema.fields
    // For every column its non-null count; for numeric ones the min and max,
    // in Long for integral columns (a double holds integers only up to 2^53),
    // and for fractional ones the error of rounding x·10^p for each p. `rint`
    // and `round` differ only at exact .5 ties, where both errors are 0.5.
    val aggs = count(lit(1)).as("__rows") +: fields.flatMap { f =>
      val nonNull = count(col(quote(f.name))).as(s"${f.name}__count")
      if (f.dataType == StringType) Seq(nonNull)
      else {
        val fractional = isFractional(f.dataType)
        val x = numericAsLong(f).cast(if (fractional) DoubleType else LongType)
        val fracs = if (!fractional) Nil else (0 to MaxDecimals).map { p =>
          val scaled = x * math.pow(10, p)
          max(abs(scaled - rint(scaled))).as(s"${f.name}__frac$p")
        }
        (nonNull +: fracs) :+ min(x).as(s"${f.name}__min") :+ max(x).as(s"${f.name}__max")
      }
    }
    val row = df.agg(aggs.head, aggs.tail.toIndexedSeq: _*).collect()(0)
    val dicts = dictionaries(df)

    fields.zipWithIndex.map { case (f, i) =>
      def stat(s: String): Option[Double] = Option(row.getAs[Any](s"${f.name}__$s")).map(_.asInstanceOf[Double])
      def spanError(gdMax: Any) = new IllegalArgumentException(
        s"column ${f.name} spans $gdMax in the GD domain; GreedyGD needs its maximum plus one in a Long")
      val kind = f.dataType match {
        case StringType => CategoricalCol(dicts.getOrElse(i, Array.empty))
        case t if !isFractional(t) =>
          def long(s: String): Long = Option(row.getAs[Any](s"${f.name}__$s")).fold(0L)(_.asInstanceOf[Long])
          val minScaled = long("min")
          val gdMax = BigInt(long("max")) - minScaled
          if (gdMax > BigInt(MaxGd.toLong)) throw spanError(gdMax)
          NumericCol(1, minScaled)
        case t =>
          // x − rint(x) is NaN exactly when x is NaN or infinite.
          if (stat("frac0").exists(_.isNaN))
            throw new IllegalArgumentException(
              s"column ${f.name} holds NaN or infinite values; GD encoding needs finite numbers")
          val p = (0 to MaxDecimals).find(p => stat(s"frac$p").forall(_ < 1e-6)).getOrElse(MaxDecimals)
          val scale = math.pow(10, p).toLong
          val minScaled = math.rint(stat("min").getOrElse(0.0) * scale)
          // `toLong` saturates, so a minimum outside [-2^63, 2^63) would
          // silently shift every GD value.
          if (!(minScaled >= -TwoTo63 && minScaled < TwoTo63))
            throw new IllegalArgumentException(
              s"column ${f.name} has scaled minimum $minScaled; the GD shift needs it in a Long")
          val gdMax = math.rint(stat("max").getOrElse(0.0) * scale) - minScaled
          if (!(gdMax <= MaxGd)) throw spanError(gdMax)
          NumericCol(scale, minScaled.toLong)
      }
      ColumnSpec(f.name, kind, row.getAs[Long]("__rows") - row.getAs[Long](s"${f.name}__count"))
    }
  }

  /** Frequency-ranked dictionary of every string column, keyed by field
    * index, in one Spark query: all (column, value) pairs are counted in one
    * aggregation and ranked by descending count, then value. The ranking
    * stays in Spark so ties order by Spark's UTF-8 byte order of strings.
    */
  private def dictionaries(df: DataFrame): Map[Int, Array[String]] = {
    val fields = df.schema.fields
    val pairs = fields.indices.collect {
      case i if fields(i).dataType == StringType => struct(lit(i).as("idx"), col(quote(fields(i).name)).as("value"))
    }
    if (pairs.isEmpty) Map.empty
    else {
      val byIdx = Window.partitionBy("idx").orderBy(desc("count"), col("value"))
      val wholeIdx = byIdx.rowsBetween(Window.unboundedPreceding, Window.unboundedFollowing)
      val ranked = df
        .select(explode(array(pairs: _*)).as("e"))
        .select("e.idx", "e.value")
        .filter(col("value").isNotNull)
        .groupBy("idx", "value").count()
        .withColumn("rank", row_number().over(byIdx))
        .withColumn("distinct", count(lit(1)).over(wholeIdx))
        .filter(col("rank") <= MaxDictSize)
        .select("idx", "value", "rank", "distinct")
        .collect()
      ranked.groupBy(_.getInt(0)).map { case (i, rows) =>
        val distinct = rows.head.getLong(3)
        if (distinct > MaxDictSize)
          throw new IllegalArgumentException(
            s"string column ${fields(i).name} has $distinct distinct values; " +
              s"dictionary encoding supports at most $MaxDictSize")
        i -> rows.sortBy(_.getInt(2)).map(_.getString(1))
      }
    }
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
