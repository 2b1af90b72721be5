package repro.core

import org.apache.spark.SparkJobCounter
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType
import org.apache.spark.storage.StorageLevel
import repro.SparkSpec
import repro.core.SynopsisAssertions.assertDimEqual
import repro.gd.{ColumnSpec, NumericCol}

/** Both entry points run the same Algorithm 1 ([[Builder.buildWeighted]]);
  * they differ only in how the sample gets there. These tests check that
  * the one Spark aggregation of [[DistributedBuilder]] (distinct rows with
  * their multiplicities) yields the same sufficient statistic as the
  * weight-1 rows of [[Builder.build]] on the same sample, and so the same
  * synopsis.
  */
class DistributedBuilderSpec extends SparkSpec {

  private def specs(names: String*): Array[ColumnSpec] =
    names.map(n => ColumnSpec(n, NumericCol(1, 0), 0)).toArray

  private lazy val sampleDf = {
    spark.range(12000).select(
      (rand(31) * 1000).cast(LongType).as("a"),
      (col("id") % 300).cast(LongType).as("b"),
      when(rand(32) < 0.08, lit(null)).otherwise(pow(rand(33), 3.0).multiply(500).cast(LongType)).as("c")
    ).cache()
  }

  private def collectLocal(df: DataFrame): Array[Array[Double]] = {
    val rows = df.collect()
    Array.tabulate(df.columns.length)(c => rows.map(r => if (r.isNullAt(c)) Double.NaN else r.getLong(c).toDouble))
  }

  private lazy val localSample: Array[Array[Double]] = collectLocal(sampleDf)

  private lazy val phLocal = Builder.build(localSample, specs("a", "b", "c"), 120000L, 120, 0.001)
  private lazy val phDist = DistributedBuilder.build(sampleDf, specs("a", "b", "c"), 120000L, 120, 0.001)

  test("1-d histograms are identical to the local builder") {
    for (i <- 0 until 3) assertDimEqual(phLocal.hist1d(i).meta, phDist.hist1d(i).meta, s"col $i")
  }

  test("2-d histograms are identical to the local builder") {
    assert(phDist.hist2d.keySet == phLocal.hist2d.keySet)
    for ((k, a) <- phLocal.hist2d) {
      val b = phDist.hist2d(k)
      assertDimEqual(a.metaI, b.metaI, s"pair $k dim i")
      assertDimEqual(a.metaJ, b.metaJ, s"pair $k dim j")
      assert(a.counts.map(_.toSeq).toSeq == b.counts.map(_.toSeq).toSeq, s"pair $k matrix")
    }
  }

  test("null counts and parameters carry over") {
    assert(phDist.nullCounts.toSeq == phLocal.nullCounts.toSeq)
    assert(phDist.nS == phLocal.nS)
    assert(phDist.n == phLocal.n && phDist.m == phLocal.m && phDist.alpha == phLocal.alpha)
  }

  test("engines over both synopses answer identically") {
    val el = new Engine(phLocal)
    val ed = new Engine(phDist)
    val queries = Seq(
      Query(AggFn.Count, "a", Some(Cond("b", Op.Le, 150.0))),
      Query(AggFn.Sum, "a", Some(And(List(Cond("b", Op.Ge, 50.0), Cond("c", Op.Le, 100.0))))),
      Query(AggFn.Avg, "c", Some(Or(List(Cond("a", Op.Le, 200.0), Cond("b", Op.Ge, 250.0))))),
      Query(AggFn.Median, "a", Some(Cond("c", Op.Ge, 10.0))),
      Query(AggFn.Min, "b", Some(Cond("a", Op.Ge, 500.0)))
    )
    for (q <- queries) {
      val (l, d) = (el.run(q), ed.run(q))
      assert(l.map(_.estimate) == d.map(_.estimate), s"$q")
      assert(l.map(_.lo) == d.map(_.lo), s"$q lo")
      assert(l.map(_.hi) == d.map(_.hi), s"$q hi")
    }
  }

  test("initial-edge seeds produce identical synopses too") {
    val seeds = Map(0 -> Array(100.0, 300.0, 500.0, 700.0, 900.0))
    val a = Builder.build(localSample, specs("a", "b", "c"), 120000L, 120, 0.001, seeds)
    val b = DistributedBuilder.build(sampleDf, specs("a", "b", "c"), 120000L, 120, 0.001, seeds)
    for (i <- 0 until 3) assertDimEqual(a.hist1d(i).meta, b.hist1d(i).meta, s"seeded col $i")
  }

  test("distributed build handles an all-null column") {
    val df = spark.range(2000).select(
      (rand(41) * 100).cast(LongType).as("x"),
      lit(null).cast(LongType).as("y")
    )
    val ph = DistributedBuilder.build(df, specs("x", "y"), 2000L, 50, 0.001)
    assert(ph.hist1d(1).meta.counts.sum == 0)
    assert(ph.nullCounts(1) == 2000L)
    assert(ph.pair(0, 1).get.counts.map(_.sum).sum == 0)
  }

  /** Both entry points on `df`; every histogram, null count and parameter equal. */
  private def assertBuildersAgree(df: DataFrame, m: Long): PairwiseHist = {
    val sp = specs(df.columns.toIndexedSeq: _*)
    val a = Builder.build(collectLocal(df), sp, 100000L, m, 0.001)
    val b = DistributedBuilder.build(df, sp, 100000L, m, 0.001)
    assert(b.nS == a.nS && b.nullCounts.toSeq == a.nullCounts.toSeq)
    for (i <- 0 until a.d) assertDimEqual(a.hist1d(i).meta, b.hist1d(i).meta, s"col $i")
    assert(b.hist2d.keySet == a.hist2d.keySet)
    for ((k, x) <- a.hist2d) {
      val y = b.hist2d(k)
      assertDimEqual(x.metaI, y.metaI, s"pair $k dim i")
      assertDimEqual(x.metaJ, y.metaJ, s"pair $k dim j")
      assert(x.counts.map(_.toSeq).toSeq == y.counts.map(_.toSeq).toSeq, s"pair $k matrix")
    }
    b
  }

  test("duplicate rows (weights > 1) give the local builder's synopsis") {
    val df = spark.range(6000).select(
      (col("id") % 40).cast(LongType).as("p"),
      (pow(col("id") % 40, 2.0) % 97).cast(LongType).as("q")
    )
    assert(df.distinct().count() == 40)
    assertBuildersAgree(df, 30)
  }

  test("low-cardinality columns whose (vi, vj) repeat across distinct rows") {
    val df = spark.range(9000).select(
      (col("id") % 5).cast(LongType).as("x"),
      (col("id") % 3).cast(LongType).as("y"),
      (pow(rand(51), 2.0) * 12).cast(LongType).as("z"),
      (rand(52) * 400).cast(LongType).as("w")
    ).cache()
    try {
      assert(df.select("x", "y").distinct().count() == 15)
      assert(df.distinct().count() > 1000)
      val ph = assertBuildersAgree(df, 40)
      assert(ph.pair(1, 0).get.counts.map(_.sum).sum == 9000)
    } finally { df.unpersist(); () }
  }

  test("nulls in different columns of one row") {
    val df = spark.range(5000).select(
      when(col("id") % 7 === 0, lit(null)).otherwise((rand(61) * 300).cast(LongType)).as("a"),
      when(col("id") % 5 === 0, lit(null)).otherwise((col("id") % 120).cast(LongType)).as("b"),
      when(col("id") % 11 === 0, lit(null)).otherwise((rand(62) * 50).cast(LongType)).as("c")
    ).cache()
    try {
      assert(df.filter(col("a").isNull && col("b").isNull).count() > 0)
      val ph = assertBuildersAgree(df, 50)
      assert(ph.nullCounts.toSeq == Seq(715L, 1000L, 455L))
    } finally { df.unpersist(); () }
  }

  test("rows on a 2-d split midpoint go to its upper half, as in the local builder") {
    // p's 1-d edges are 0, 64, 128, 192, 256 and stay unsplit: the 1-d bin
    // [128, 192) is uniform over its two sub-bins (300 rows each). In the
    // 2-d cell [128, 192) x [0, 1) every row sits at p = 160, the cell's
    // midpoint, so where those rows go decides every later split.
    val spark0 = spark
    import spark0.implicits._
    val rows = Seq.fill(200)((160L, 0L)) ++ Seq.fill(150)(Seq((136L, 1L), (136L, 2L))).flatten ++
      Seq.fill(50)(Seq((184L, 1L), (184L, 2L))).flatten ++ Seq((0L, 1L), (256L, 2L))
    val ph = assertBuildersAgree(rows.toDF("p", "q"), 200)
    assert(ph.hist1d(0).meta.edges.toSeq == Seq(0.0, 64.0, 128.0, 192.0, 256.0))
    assert(Seq(160.0, 176.0, 161.0).forall(ph.pair(1, 0).get.metaJ.edges.contains))
  }

  test("a one-column frame has no pairs") {
    val df = spark.range(3000).select((pow(rand(71), 2.0) * 900).cast(LongType).as("only")).cache()
    try assert(assertBuildersAgree(df, 30).hist2d.isEmpty)
    finally { df.unpersist(); () }
  }

  test("a zero-row frame gives the empty synopsis") {
    val df = spark.range(0).select(col("id").as("a"), (col("id") * 2).as("b"))
    val ph = assertBuildersAgree(df, 30)
    assert(ph.nS == 0 && ph.hist1d.forall(_.meta.counts.sum == 0))
  }

  test("build runs exactly one Spark job") {
    val df = spark.range(8000).select(
      (rand(81) * 500).cast(LongType).as("a"),
      (col("id") % 200).cast(LongType).as("b"),
      when(rand(82) < 0.1, lit(null)).otherwise((rand(83) * 60).cast(LongType)).as("c")
    )
    val (_, jobs) = SparkJobCounter(spark)(DistributedBuilder.build(df, specs("a", "b", "c"), 80000L, 80, 0.001))
    assert(jobs == 1)
  }

  test("build leaves a frame the caller cached in the cache") {
    assert(sampleDf.storageLevel != StorageLevel.NONE)
    DistributedBuilder.build(sampleDf, specs("a", "b", "c"), 120000L, 120, 0.001)
    assert(sampleDf.storageLevel != StorageLevel.NONE)
  }
}
