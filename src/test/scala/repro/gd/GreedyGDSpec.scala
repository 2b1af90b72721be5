package repro.gd

import org.apache.spark.SparkJobCounter
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType
import repro.SparkSpec
import repro.util.ColumnName.quote

class GreedyGDSpec extends SparkSpec {

  /** Low-entropy-MSB data: values cluster around a few levels so bases dedup well. */
  private lazy val gdDf = {
    import spark.implicits._
    spark.range(20000).select(
      ((col("id") % 4) * 1000 + (rand(1) * 16).cast(LongType)).as("a"),
      ((col("id") % 2) * 512 + (rand(2) * 8).cast(LongType)).as("b"),
      when(rand(3) < 0.1, lit(null)).otherwise((rand(4) * 32).cast(LongType)).as("c")
    )
  }

  test("chooseConfig moves low bits to deviations on clustered data") {
    val local = gdDf.limit(5000).collect().map { r =>
      Array.tabulate(3)(c => if (r.isNullAt(c)) -1L else r.getLong(c))
    }
    val cfg = GreedyGD.chooseConfig(local, 3)
    assert(cfg.devBits.sum > 0, s"devBits=${cfg.devBits.toSeq}")
    assert(cfg.devBits.zip(cfg.totalBits).forall { case (d, t) => d <= t })
  }

  test("compression achieves a ratio > 1 on dedupable data") {
    val c = GreedyGD.run(gdDf, sampleRows = 5000)
    assert(c.nBases < c.nRows, s"bases=${c.nBases} rows=${c.nRows}")
    assert(c.ratio > 1.0, s"ratio=${c.ratio}")
  }

  test("decompression is lossless (bases + deviations reconstruct the data)") {
    val c = GreedyGD.run(gdDf, sampleRows = 5000)
    val back = c.decompress(gdDf.columns)
    val orig = gdDf.select(concat_ws(",", gdDf.columns.map(cc => coalesce(col(cc).cast("string"), lit("null"))).toIndexedSeq: _*))
      .collect().map(_.getString(0)).sorted
    val rec = back.select(concat_ws(",", back.columns.map(cc => coalesce(col(cc).cast("string"), lit("null"))).toIndexedSeq: _*))
      .collect().map(_.getString(0)).sorted
    assert(rec.length == orig.length)
    assert(rec.toSeq == orig.toSeq)
  }

  test("baseValues are sorted, distinct, in the GD domain") {
    val c = GreedyGD.run(gdDf, sampleRows = 5000)
    val bv = GreedyGD.baseValues(c, "a")
    assert(bv.sameElements(bv.sorted))
    assert(bv.distinct.length == bv.length)
    assert(bv.forall(_ >= 0.0))
    // Base values mask low bits: should be far fewer than distinct values.
    val distinctA = gdDf.select("a").distinct().count()
    assert(bv.length <= distinctA)
  }

  test("random high-entropy data compresses poorly (few duplicate bases)") {
    import spark.implicits._
    val noise = spark.range(5000).select(
      (rand(7) * 1e9).cast(LongType).as("x"),
      (rand(8) * 1e9).cast(LongType).as("y")
    )
    val c = GreedyGD.run(noise, sampleRows = 2000)
    // Greedy search should park most bits in deviations; ratio stays near 1.
    assert(c.ratio < 2.0)
  }

  test("nulls survive compression round-trip") {
    val c = GreedyGD.run(gdDf, sampleRows = 5000)
    val nullsOrig = gdDf.filter(col("c").isNull).count()
    val nullsBack = c.decompress(gdDf.columns).filter(col("c").isNull).count()
    assert(nullsOrig == nullsBack)
  }

  test("compressedBytes accounting: bases + deviations + ids") {
    val c = GreedyGD.run(gdDf, sampleRows = 5000)
    assert(c.compressedBytes > 0)
    assert(c.originalBytes >= c.compressedBytes) // ratio > 1 on this data
  }

  test("baseValues equal the sorted distinct non-null bases of every column") {
    val c = GreedyGD.run(gdDf, sampleRows = 5000)
    for (name <- gdDf.columns) {
      val direct = c.bases.select(name).distinct().collect()
        .map(_.getLong(0)).filter(_ > 0L).map(v => (v - 1L).toDouble).sorted
      assert(GreedyGD.baseValues(c, name).toSeq == direct.toSeq, name)
    }
  }

  private lazy val allBaseSource =
    spark.range(1000).select(((col("id") * 7) % 1000).as("x"), (col("id") % 10).as("y"))

  /** Every bit in the base, so the base table is the distinct rows: column
    * x has 1000 distinct bases, y has 10.
    */
  private lazy val allBase = GreedyGD.compress(allBaseSource, GreedyGD.Config(Array(0, 0), Array(10, 4)), 1000L)

  test("a cap below the distinct count keeps exactly cap values, evenly spaced in rank") {
    val full = GreedyGD.baseValues(allBase, "x")
    assert(full.toSeq == (0 until 1000).map(_.toDouble))
    val cap = 64
    val capped = GreedyGD.baseValues(allBase, "x", cap)
    assert(capped.length == cap)
    val n = full.length
    val expected = (0 until n).filter(r => r == 0 || r * cap / n > (r - 1) * cap / n).map(full)
    assert(capped.toSeq == expected)
    // under the cap a column is untouched
    assert(GreedyGD.baseValues(allBase, "y", cap).toSeq == (0 until 10).map(_.toDouble))
  }

  test("capped seeds repeat across calls and partitionings") {
    val cap = 37
    val once = GreedyGD.baseValues(allBase, "x", cap)
    assert(GreedyGD.baseValues(allBase, "x", cap).toSeq == once.toSeq)
    for (parts <- Seq(1, 7)) {
      val c = GreedyGD.compress(allBaseSource.repartition(parts), allBase.config, 1000L)
      assert(GreedyGD.baseValues(c, "x", cap).toSeq == once.toSeq, s"parts=$parts")
    }
  }

  test("baseValues over every column of one Compressed runs no Spark job") {
    val c = GreedyGD.run(gdDf, sampleRows = 5000)
    val specs = gdDf.columns.map(n => ColumnSpec(n, NumericCol(1L, 0L), 0L))
    val (seeds, jobs) = SparkJobCounter(spark)(GreedyGD.seeds(c, specs))
    assert(seeds.keySet == specs.indices.toSet)
    assert(jobs == 0, s"jobs=$jobs")
  }

  test("GreedyGD.run runs at most three Spark jobs: the count, the sample and the base pass") {
    val (c, jobs) = SparkJobCounter(spark)(GreedyGD.run(gdDf, sampleRows = 5000))
    assert(c.nBases > 0)
    assert(jobs <= 3, s"jobs=$jobs")
    // Given the row count, the count job goes and the result stays the same.
    val (counted, countedJobs) = SparkJobCounter(spark)(GreedyGD.run(gdDf, 5000, 7, c.nRows))
    assert(countedJobs <= 2, s"jobs=$countedJobs")
    assert(counted.config.devBits.toSeq == c.config.devBits.toSeq)
    assert(counted.config.totalBits.toSeq == c.config.totalBits.toSeq)
    assert(counted.nBases == c.nBases && counted.nRows == c.nRows)
    assert(counted.baseRows.map(_.toSeq).toSeq == c.baseRows.map(_.toSeq).toSeq)
  }

  test("a base value beyond 2^53 is rejected with its column's name, not rounded") {
    val big = spark.range(2).select((col("id") * ((1L << 53) + 1)).as("big"))
    val c = GreedyGD.compress(big, GreedyGD.Config(Array(0), Array(54)), 2L)
    val e = intercept[IllegalArgumentException](GreedyGD.baseValues(c, "big"))
    assert(e.getMessage.contains("column big "), e.getMessage)
  }

  /** Reference: the base table as a Spark `distinct` of the masked, +1-shifted
    * rows, and the capped seeds from it by one window query, as GreedyGD
    * computed both before its base dictionary came from one row pass.
    */
  private object DistinctBases {
    def table(df: DataFrame, config: GreedyGD.Config): DataFrame =
      df.select(df.columns.toIndexedSeq.zipWithIndex.map { case (c, i) =>
        coalesce(col(quote(c)) + 1L, lit(0L)).bitwiseAND(lit(config.baseMask(i))).as(c)
      }: _*).distinct()

    def seeds(bases: DataFrame, cap: Int): Map[String, Array[Double]] = {
      val cols = bases.columns.filterNot(_ == "gd_base_id")
      val byIdx = Window.partitionBy("idx").orderBy("v")
      val wholeIdx = byIdx.rowsBetween(Window.unboundedPreceding, Window.unboundedFollowing)
      val picked = bases
        .select(explode(array(cols.zipWithIndex.map { case (c, i) =>
          struct(lit(i).as("idx"), col(quote(c)).as("v"))
        }.toIndexedSeq: _*)).as("e"))
        .select("e.idx", "e.v")
        .filter(col("v") > 0L)
        .repartition(col("idx"))
        .distinct()
        .withColumn("r", row_number().over(byIdx) - 1L)
        .withColumn("n", count(lit(1)).over(wholeIdx))
        .filter(col("n") <= cap || col("r") === 0L || expr(s"(r * $cap) div n > ((r - 1) * $cap) div n"))
        .select("idx", "v")
        .collect()
      val byCol = picked.groupBy(_.getInt(0))
      cols.indices.map { i =>
        val shifted = byCol.getOrElse(i, Array.empty).map(_.getLong(1)).sorted
        cols(i) -> shifted.map(v => (v - 1L).toDouble)
      }.toMap
    }
  }

  test("nBases, ratio and baseValues equal the distinct-plus-window reference in 1 and 7 partitions") {
    val cases: Seq[(String, DataFrame, DataFrame => GreedyGD.Compressed)] = Seq(
      ("run", gdDf, f => GreedyGD.run(f, sampleRows = 5000)),
      ("fine bases", gdDf, f => GreedyGD.compress(f, GreedyGD.Config(Array(2, 1, 0), Array(12, 10, 6)), f.count())),
      ("all base", allBaseSource, f => GreedyGD.compress(f, GreedyGD.Config(Array(0, 0), Array(10, 4)), f.count()))
    )
    for ((name, source, compress) <- cases; parts <- Seq(1, 7)) {
      val frame = source.repartition(parts)
      val c = compress(frame)
      val table = DistinctBases.table(frame, c.config)
      val nBases = table.count()
      assert(c.nBases == nBases, s"$name parts=$parts")
      assert(c.nRows == frame.count(), s"$name parts=$parts")
      assert(c.ratio == c.originalBytes.toDouble / c.config.storageBytes(nBases, c.nRows), s"$name parts=$parts")
      for (cap <- Seq(7, 64, GreedyGD.SeedCap)) {
        val want = DistinctBases.seeds(table, cap)
        for (column <- frame.columns)
          assert(GreedyGD.baseValues(c, column, cap).toSeq == want(column).toSeq, s"$name parts=$parts cap=$cap $column")
      }
    }
  }
}
