package repro.gd

import org.apache.spark.SparkJobCounter
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType
import repro.SparkSpec

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

  /** Every bit in the base, so the base table is the distinct rows: column
    * x has 1000 distinct bases, y has 10.
    */
  private lazy val allBase = {
    val df = spark.range(1000).select(((col("id") * 7) % 1000).as("x"), (col("id") % 10).as("y"))
    GreedyGD.compress(df, GreedyGD.Config(Array(0, 0), Array(10, 4)), 1000L)
  }

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
      assert(GreedyGD.distinctBases(allBase.bases.repartition(parts), cap)("x").toSeq == once.toSeq, s"parts=$parts")
    }
  }

  test("baseValues over every column of one Compressed runs one Spark job") {
    val c = GreedyGD.run(gdDf, sampleRows = 5000)
    val specs = gdDf.columns.map(n => ColumnSpec(n, NumericCol(1L, 0L), 0L))
    val (seeds, jobs) = SparkJobCounter(spark)(GreedyGD.seeds(c, specs))
    assert(seeds.keySet == specs.indices.toSet)
    assert(jobs <= 1, s"jobs=$jobs")
  }
}
