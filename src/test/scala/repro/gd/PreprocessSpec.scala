package repro.gd

import org.apache.spark.SparkJobCounter
import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import repro.SparkSpec
import repro.util.ColumnName.quote

class PreprocessSpec extends SparkSpec {

  private lazy val df = {
    import scala.jdk.CollectionConverters._
    val schema = StructType(Seq(
      StructField("d", DoubleType, nullable = true),
      StructField("i", IntegerType, nullable = true),
      StructField("s", StringType, nullable = true),
      StructField("dt", DateType, nullable = true)
    ))
    val rows = Seq(
      Row(10.25, 5, "b", java.sql.Date.valueOf("2020-01-02")),
      Row(10.50, -3, "a", java.sql.Date.valueOf("2020-01-01")),
      Row(11.75, 0, "a", null),
      Row(null, 7, "a", java.sql.Date.valueOf("2020-02-01")),
      Row(12.00, 2, null, java.sql.Date.valueOf("2020-01-15")),
      Row(10.25, 2, "c", java.sql.Date.valueOf("2020-01-02"))
    )
    spark.createDataFrame(rows.asJava, schema)
  }

  private lazy val result = Preprocess.run(df)

  test("float-to-int scale detection picks the smallest sufficient power of ten") {
    val NumericCol(scale, _) = result.specs(0).kind: @unchecked
    assert(scale == 100L) // .25 steps need 2 decimals
  }

  test("minimum-value subtraction makes the encoded min zero") {
    val mins = result.df.agg(min("d"), min("i"), min("dt")).collect()(0)
    assert(mins.getLong(0) == 0L)
    assert(mins.getLong(1) == 0L)
    assert(mins.getLong(2) == 0L)
  }

  test("integer column gets scale 1 and its min as shift") {
    val NumericCol(scale, minScaled) = result.specs(1).kind: @unchecked
    assert(scale == 1L && minScaled == -3L)
  }

  test("categorical dictionary is frequency-ranked") {
    val CategoricalCol(dict) = result.specs(2).kind: @unchecked
    assert(dict.head == "a") // most frequent first
    assert(dict.toSet == Set("a", "b", "c"))
  }

  test("null counts are recorded per column") {
    assert(result.specs(0).nullCount == 1)
    assert(result.specs(1).nullCount == 0)
    assert(result.specs(2).nullCount == 1)
    assert(result.specs(3).nullCount == 1)
  }

  test("missing values stay null in the GD domain") {
    val nulls = result.df.select(
      sum(when(col("d").isNull, 1).otherwise(0)),
      sum(when(col("s").isNull, 1).otherwise(0))
    ).collect()(0)
    assert(nulls.getLong(0) == 1 && nulls.getLong(1) == 1)
  }

  test("all output columns are nullable LongType") {
    assert(result.df.schema.fields.forall(_.dataType == LongType))
  }

  test("toGd/fromGd invert each other for numeric literals") {
    val spec = result.specs(0)
    for (v <- Seq(10.25, 10.50, 11.75, 12.00)) {
      assert(math.abs(spec.fromGd(spec.toGd(v)) - v) < 1e-9, s"v=$v")
    }
  }

  test("toGd shifts integral literals exactly above 2^53") {
    val base = 1L << 60
    val spec = ColumnSpec("x", NumericCol(1, base), 0)
    // (2^60 + 3).toDouble is 2^60: the old double path gave GD 0.
    assert(spec.toGd(base + 3) == 3.0)
    assert(spec.toGd(base + 7) == 7.0)
    assert(spec.toGd((base + 3).toDouble) == 0.0) // a double literal keeps its rounding
    assert(spec.toGd(5) == 5.0 - base)
    // Out of a Long: the double path.
    assert(ColumnSpec("y", NumericCol(1000, -5), 0).toGd(Long.MaxValue) == math.rint(Long.MaxValue.toDouble * 1000) + 5)
    assert(ColumnSpec("z", NumericCol(1, Long.MinValue + 1), 0).toGd(Long.MaxValue) == Long.MaxValue.toDouble - (Long.MinValue + 1))
  }

  test("COUNT on a Long column above 2^53 counts the rows at and above an integral literal") {
    val base = 1L << 60
    val raw = spark.createDataFrame(
      spark.sparkContext.parallelize(Seq(Row(base), Row(base + 3), Row(base + 7))),
      StructType(Seq(StructField("x", LongType, nullable = false))))
    val pre = Preprocess.run(raw)
    assert(pre.specs(0).kind == NumericCol(1, base))
    val gd = pre.df.collect().map(_.getLong(0).toDouble)
    val ph = repro.core.Builder.build(Array(gd), pre.specs, 3L, m = 2, alpha = 0.001)
    val q = repro.core.Query(repro.core.AggFn.Count, "x", Some(repro.core.Cond("x", repro.core.Op.Ge, base + 3)))
    assert(new repro.core.Engine(ph).run(q).map(_.estimate).contains(2.0))
  }

  test("toGd maps categorical literals to dictionary codes") {
    val spec = result.specs(2)
    val CategoricalCol(dict) = spec.kind: @unchecked
    assert(spec.toGd(dict(0)) == 0.0)
    assert(spec.toGd(dict(1)) == 1.0)
    assert(spec.toGd("zzz") == -1.0)
  }

  test("date columns become epoch-day offsets") {
    val spec = result.specs(3)
    val NumericCol(scale, minScaled) = spec.kind: @unchecked
    assert(scale == 1L)
    // 2020-01-01 is epoch day 18262.
    assert(minScaled == 18262L)
    val maxGd = result.df.agg(max("dt")).collect()(0).getLong(0)
    assert(maxGd == 31L) // 2020-02-01 minus 2020-01-01
  }

  test("GD values round-trip the data exactly (lossless pre-processing)") {
    val spec = result.specs(0)
    val gd = result.df.select("d").collect().flatMap(r => if (r.isNullAt(0)) None else Some(r.getLong(0)))
    val orig = df.select("d").collect().flatMap(r => if (r.isNullAt(0)) None else Some(r.getDouble(0)))
    assert(gd.map(v => spec.fromGd(v.toDouble)).sorted.toSeq == orig.sorted.toSeq)
  }

  test("fromGdSum scales the affine shift by the count") {
    val spec = ColumnSpec("t", NumericCol(100, 500), 0)
    // three values 6.0, 7.0, 8.0 -> gd 100, 200, 300; sum_gd=600, cnt=3
    assert(math.abs(spec.fromGdSum(600.0, 3.0) - 21.0) < 1e-9)
  }

  test("fromGdVar divides by scale squared") {
    val spec = ColumnSpec("t", NumericCol(10, 123), 0)
    assert(math.abs(spec.fromGdVar(400.0) - 4.0) < 1e-12)
  }

  test("a dataset frame with a date column keeps row count and is deterministic") {
    // The temp stand-in (string, integer and decimal columns) plus a date column.
    def frame(): DataFrame = repro.data.Datasets.byName("temp")(spark, 0.001, seed = 0)
      .withColumn("day", date_add(lit("1992-01-01").cast(DateType), (rand(9) * 2557).cast("int")))
    val r1 = Preprocess.run(frame())
    assert(r1.df.count() == frame().count())
    assert(r1.specs.exists(s => s.name == "day" && s.kind.isInstanceOf[NumericCol]))
    val r2 = Preprocess.run(frame())
    def render(s: ColumnSpec): String = s.kind match {
      case NumericCol(sc, mn)   => s"num($sc,$mn)"
      case CategoricalCol(dict) => s"cat(${dict.mkString("|")})"
    }
    assert(r1.specs.map(render).toSeq == r2.specs.map(render).toSeq)
  }

  /** Reference ranking: one string column on its own, by groupBy/orderBy. */
  private def perColumnDict(df: DataFrame, c: String): Seq[String] =
    df.filter(col(c).isNotNull).groupBy(col(c)).count()
      .orderBy(desc("count"), col(c))
      .collect().map(_.getString(0)).toSeq

  private def dicts(specs: Array[ColumnSpec]): Map[String, Seq[String]] =
    specs.collect { case ColumnSpec(n, CategoricalCol(d), _) => n -> d.toSeq }.toMap

  private lazy val strings = {
    import scala.jdk.CollectionConverters._
    val schema = StructType(Seq(
      StructField("u", StringType, nullable = true),
      StructField("t", StringType, nullable = true),
      StructField("none", StringType, nullable = true),
      StructField("n", IntegerType, nullable = true)
    ))
    // u: count ties at 2 and at 1, with values whose UTF-16 and UTF-8 byte
    // orders differ ("\uFF61" sorts after the surrogate pair of U+1F600 in
    // UTF-16, before it in UTF-8). t: ASCII ties. none: all NULL.
    val u = Seq("z", "é", "z", "é", "a", "b", "\uFF61", "\uD83D\uDE00", null, "b")
    val t = Seq("q", "p", "q", "p", "r", null, "r", "s", "s", "s")
    val rows = u.zip(t).zipWithIndex.map { case ((a, b), i) => Row(a, b, null, i) }
    spark.createDataFrame(rows.asJava, schema)
  }

  test("fused dictionaries equal the per-column groupBy/orderBy ranking") {
    val got = dicts(Preprocess.fit(strings))
    for (c <- Seq("u", "t", "none")) assert(got(c) == perColumnDict(strings, c), c)
    assert(got("u") == Seq("b", "z", "é", "a", "\uFF61", "\uD83D\uDE00"))
    assert(got("t") == Seq("s", "p", "q", "r"))
    assert(got("none").isEmpty)
  }

  test("a frame with no string columns gets no dictionaries") {
    val specs = Preprocess.fit(strings.select("n"))
    assert(specs.length == 1 && !specs(0).isCategorical)
  }

  test("a string column over MaxDictSize distinct values is rejected, not truncated") {
    val wide = spark.range(Preprocess.MaxDictSize + 1L).select(col("id").cast(StringType).as("wide"))
    val e = intercept[IllegalArgumentException](Preprocess.fit(wide))
    assert(e.getMessage.contains("wide"), e.getMessage)
    assert(e.getMessage.contains((Preprocess.MaxDictSize + 1).toString), e.getMessage)
  }

  /** Reference of the numeric rule `fit` must keep: per column, nulls by
    * `sum(when(isNull))`; for fractional types seven BigDecimal-`round`
    * probes pick the first p with max |x·10^p − round(x·10^p)| < 1e-6 (else
    * 6); the min has one arm per type. Returns (name, scale, minScaled,
    * nullCount) for every non-string column.
    */
  private def referenceNumericSpecs(df: DataFrame): Seq[(String, Long, Long, Long)] = {
    val fields = df.schema.fields.filter(_.dataType != StringType)
    val aggs = fields.toSeq.flatMap { f =>
      val c = col(f.name)
      val nulls = sum(when(c.isNull, 1L).otherwise(0L)).as(s"${f.name}__nulls")
      f.dataType match {
        case DoubleType | FloatType | _: DecimalType =>
          Seq(nulls) ++ (0 to 6).map { p =>
            val scaled = c.cast(DoubleType) * math.pow(10, p)
            max(abs(scaled - round(scaled))).as(s"${f.name}__frac$p")
          } :+ min(c.cast(DoubleType)).as(s"${f.name}__min")
        case DateType =>
          Seq(nulls, min(datediff(c, lit("1970-01-01").cast(DateType)).cast(DoubleType)).as(s"${f.name}__min"))
        case TimestampType =>
          Seq(nulls, min(unix_timestamp(c).cast(DoubleType)).as(s"${f.name}__min"))
        case BooleanType =>
          Seq(nulls, min(c.cast(IntegerType).cast(DoubleType)).as(s"${f.name}__min"))
        case _ =>
          Seq(nulls, min(c.cast(DoubleType)).as(s"${f.name}__min"))
      }
    }
    val row = df.agg(aggs.head, aggs.tail: _*).collect()(0)
    def opt(name: String): Option[Double] = Option(row.getAs[Any](name)).map(_.asInstanceOf[Double])
    fields.toSeq.map { f =>
      val p = f.dataType match {
        case DoubleType | FloatType | _: DecimalType =>
          (0 to 6).find(p => opt(s"${f.name}__frac$p").forall(m => math.abs(m) < 1e-6)).getOrElse(6)
        case _ => 0
      }
      val scale = math.pow(10, p).toLong
      val mn = opt(s"${f.name}__min").getOrElse(0.0)
      val nulls = Option(row.getAs[Any](s"${f.name}__nulls")).map(_.asInstanceOf[Long]).getOrElse(0L)
      (f.name, scale, math.rint(mn * scale).toLong, nulls)
    }
  }

  private def numericSpecs(specs: Array[ColumnSpec]): Seq[(String, Long, Long, Long)] =
    specs.toSeq.collect { case ColumnSpec(n, NumericCol(scale, mn), nulls) => (n, scale, mn, nulls) }

  /** One column per case; shorter columns are padded with nulls. */
  private def columns(cols: (String, DataType, Seq[Any])*): DataFrame = {
    import scala.jdk.CollectionConverters._
    val n = cols.map(_._3.length).max
    val schema = StructType(cols.map { case (name, t, _) => StructField(name, t, nullable = true) })
    val rows = (0 until n).map(r => Row.fromSeq(cols.map(_._3.lift(r).orNull)))
    spark.createDataFrame(rows.asJava, schema)
  }

  test("fit's numeric specs equal the reference rule on adversarial doubles and every supported type") {
    def ts(s: String) = java.sql.Timestamp.valueOf(s)
    val frame = columns(
      ("sum", DoubleType, Seq(0.1 + 0.2)),
      ("offGrid", DoubleType, Seq(1.0000002, 0.5)),
      ("twoHalf", DoubleType, Seq(2.5, -2.5)),
      ("belowHalf", DoubleType, Seq(0.49999999999999994)),
      ("micro", DoubleType, Seq(1.0000005)),
      ("bigHalf", DoubleType, Seq(1e15 + 0.5)),
      ("negZero", DoubleType, Seq(-0.0)),
      ("tiny", DoubleType, Seq(Double.MinPositiveValue)),
      ("allNull", DoubleType, Seq(null, null)),
      ("f", FloatType, Seq(1.1f, -3.25f, null)),
      ("dec", DecimalType(10, 3), Seq(BigDecimal("12.345").bigDecimal, BigDecimal("-0.001").bigDecimal, null)),
      ("i", IntegerType, Seq(5, null, -7)),
      ("l", LongType, Seq(null, 1L << 40, -3L)),
      ("dt", DateType, Seq(java.sql.Date.valueOf("2021-03-04"), null, java.sql.Date.valueOf("1969-12-30"))),
      ("ts", TimestampType, Seq(ts("2021-03-04 05:06:07"), null, ts("1999-12-31 23:59:59"))),
      ("b", BooleanType, Seq(true, null, true)),
      ("s", StringType, Seq("x", null))
    )
    val got = numericSpecs(Preprocess.fit(frame))
    val want = referenceNumericSpecs(frame)
    assert(got.map(_._1) == want.map(_._1))
    got.zip(want).foreach { case (g, w) => assert(g == w, s"column ${w._1}") }
    // The tolerance is not monotone in p: 0.5 fails p = 0 and 1.0000002
    // fails every p >= 1, so the column falls back to 10^6.
    assert(want.find(_._1 == "offGrid").map(_._2).contains(1000000L))
  }

  test("a floating-point column holding NaN or an infinity is rejected with its name") {
    for ((t, vs) <- Seq(DoubleType -> Seq(1.5, Double.NaN), DoubleType -> Seq(1.5, Double.PositiveInfinity),
                        DoubleType -> Seq(Double.NegativeInfinity, 1.5), FloatType -> Seq(1.5f, Float.NaN))) {
      val frame = columns(("ok", DoubleType, Seq(1.5, 2.0)), ("bad", t, vs))
      val e = intercept[IllegalArgumentException](Preprocess.fit(frame))
      assert(e.getMessage.contains("column bad "), s"$t $vs: ${e.getMessage}")
    }
  }

  test("a numeric column whose GD range does not fit in a Long is rejected with its name") {
    // The last two ranges fit; their scaled minimum alone lies outside a Long.
    for ((t, vs) <- Seq(LongType -> Seq(Long.MaxValue, Long.MinValue + 1), DoubleType -> Seq(1e19, -1e19),
                        DoubleType -> Seq(Double.MaxValue), DoubleType -> Seq(-1e19, -1e19 + 1e4))) {
      val frame = columns(("ok", LongType, Seq(1L, 2L)), ("big", t, vs))
      val e = intercept[IllegalArgumentException](Preprocess.fit(frame))
      assert(e.getMessage.contains("column big "), s"$t $vs: ${e.getMessage}")
    }
    // A range of 2^62 fits, and so does GreedyGD's +1 on top of it.
    val wide = Preprocess.run(columns(("wide", LongType, Seq(0L, 1L << 62)))).df
    assert(wide.agg(max(col("wide") + 1L)).head().getLong(0) == (1L << 62) + 1)
    // The smallest Long is a valid minimum.
    val low = Preprocess.fit(columns(("low", LongType, Seq(Long.MinValue, Long.MinValue + 5))))
    assert(low(0).kind == NumericCol(1, Long.MinValue))
  }

  test("an integral column above 2^53 keeps every bit: its GD values are exactly x - min") {
    val vs = Seq((1L << 53) + 1, (1L << 53) + 3, (1L << 60) + 7)
    val r = Preprocess.run(columns(("big", LongType, vs)))
    assert(r.specs(0).kind == NumericCol(1, vs.head))
    assert(r.df.collect().map(_.getLong(0)).sorted.toSeq == vs.map(_ - vs.head))
  }

  test("fit runs one Spark job on a frame with three string columns") {
    val (specs, jobs) = SparkJobCounter(spark)(Preprocess.fit(strings))
    assert(specs.count(_.isCategorical) == 3)
    assert(jobs == 1, s"jobs=$jobs")
  }

  test("run counts the rows in fit's pass") {
    assert(result.nRows == 6)
    assert(Preprocess.run(strings.filter(col("n") < 0)).nRows == 0)
  }

  // ------------------------------------------------------------------
  // Reference: `fit` as two Spark queries (one aggregation for the numeric
  // stats and null counts, one window query for the frequency-ranked
  // dictionaries), kept verbatim so the one-pass `fit` is compared against
  // the rule it replaced.

  private object TwoQueryFit {
    private val MaxDecimals = 6
    private val TwoTo63: Double = math.pow(2, 63)
    import Preprocess.{MaxDictSize, MaxGd}

    def fit(df: DataFrame): Array[ColumnSpec] = {
      val fields = df.schema.fields
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
            if (stat("frac0").exists(_.isNaN))
              throw new IllegalArgumentException(
                s"column ${f.name} holds NaN or infinite values; GD encoding needs finite numbers")
            val p = (0 to MaxDecimals).find(p => stat(s"frac$p").forall(_ < 1e-6)).getOrElse(MaxDecimals)
            val scale = math.pow(10, p).toLong
            val minScaled = math.rint(stat("min").getOrElse(0.0) * scale)
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

    private def isFractional(t: DataType): Boolean = t match {
      case DoubleType | FloatType | _: DecimalType => true
      case _                                       => false
    }

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

  /** A spec as text, or the message of the rejection. */
  private def outcome(fit: => Array[ColumnSpec]): Either[String, Seq[String]] =
    try Right(fit.toSeq.map { s =>
      val kind = s.kind match {
        case NumericCol(sc, mn)   => s"num($sc,$mn)"
        case CategoricalCol(dict) => s"cat(${dict.mkString("|")})"
      }
      s"${s.name}:$kind:${s.nullCount}"
    })
    catch { case e: IllegalArgumentException => Left(e.getMessage) }

  private val genSchema = StructType(Seq(
    StructField("by", ByteType), StructField("sh", ShortType), StructField("in", IntegerType),
    StructField("lo", LongType), StructField("fl", FloatType), StructField("db", DoubleType),
    StructField("grid", DoubleType), StructField("dec", DecimalType(10, 3)), StructField("dt", DateType),
    StructField("ts", TimestampType), StructField("bo", BooleanType), StructField("s1", StringType),
    StructField("s2", StringType)
  ))

  /** Values with count ties and UTF-8 orders that differ from UTF-16's. */
  private val words = Seq("a", "b", "ab", "", "é", "z", "\uFF61", "\uD83D\uDE00", "Ω")

  /** Off-grid doubles; now and then one that `fit` must reject. */
  private val offGrid: Gen[Double] = Gen.frequency(
    60 -> Gen.choose(-1e6, 1e6),
    10 -> Gen.oneOf(0.1 + 0.2, 1.0000002, 2.5, -2.5, 0.49999999999999994, 1.0000005, 1e15 + 0.5, -0.0,
      Double.MinPositiveValue),
    1 -> Gen.oneOf(1e300, -1e19, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)
  )

  private def cell(f: StructField): Gen[Any] = f.name match {
    case "by"   => Gen.choose(Byte.MinValue, Byte.MaxValue)
    case "sh"   => Gen.choose(Short.MinValue, Short.MaxValue)
    case "in"   => Gen.choose(-1000, 1000)
    case "lo"   => Gen.oneOf(Gen.choose(-(1L << 50), 1L << 50), Gen.choose(-3L, 3L))
    case "fl"   => Gen.oneOf(Gen.choose(-1e4f, 1e4f), Gen.oneOf(1.1f, -3.25f, 0.5f))
    case "db"   => offGrid
    case "grid" => Gen.choose(-4000, 4000).map(_ * 0.25)
    case "dec"  => Gen.choose(-9999999L, 9999999L).map(v => java.math.BigDecimal.valueOf(v, 3))
    case "dt"   => Gen.choose(-20000L, 40000L).map(d => java.sql.Date.valueOf(java.time.LocalDate.ofEpochDay(d)))
    case "ts"   => Gen.choose(-2000000000L * 1000000L, 2000000000L * 1000000L).map { us =>
        java.sql.Timestamp.from(java.time.Instant.EPOCH.plus(us, java.time.temporal.ChronoUnit.MICROS))
      }
    case "bo"   => Gen.oneOf(true, false)
    case _      => Gen.oneOf(words)
  }

  /** Rows of `genSchema`; every cell is null with probability `pNull`. */
  private val genRows: Gen[Seq[Row]] = for {
    n <- Gen.frequency(1 -> Gen.const(0), 8 -> Gen.choose(1, 40))
    pNull <- Gen.oneOf(0.0, 0.2, 1.0)
    rows <- Gen.listOfN(n, Gen.sequence[Seq[Any], Any](genSchema.fields.toSeq.map { f =>
      Gen.choose(0.0, 1.0).flatMap(u => if (u < pNull) Gen.const(null) else cell(f))
    }))
  } yield rows.map(Row.fromSeq)

  test("fit equals the two-query reference on random frames in 1, 3 and 7 partitions") {
    val prop = Prop.forAllNoShrink(genRows) { rows =>
      def frame(parts: Int) = spark.createDataFrame(spark.sparkContext.parallelize(rows, parts), genSchema)
      val want = outcome(TwoQueryFit.fit(frame(3)))
      Prop.all(Seq(1, 3, 7).map { parts =>
        val got = outcome(Preprocess.fit(frame(parts)))
        Prop(got == want) :| s"parts=$parts\n got $got\nwant $want\nrows ${rows.mkString("; ")}"
      }: _*)
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(30).withInitialSeed(Seed(20261020L))
    val res = Test.check(params, prop)
    assert(res.passed, res.status.toString)
  }

  test("fit equals the two-query reference on the fixed frames") {
    for (frame <- Seq(df, strings, strings.select("n")))
      assert(outcome(Preprocess.fit(frame)) == outcome(TwoQueryFit.fit(frame)))
  }
}
