package repro.core

import java.security.MessageDigest

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.core.SynopsisAssertions.assertSameSynopsis
import repro.encoding.Codec
import repro.gd.{ColumnSpec, NumericCol}

import scala.util.Random

/** Pins the encoded bytes of [[DistributedBuilder]] synopses on fixed-seed
  * frames. The frames are generated on the driver, so they do not depend on
  * how many partitions Spark uses. A change to the builder that alters any
  * edge, count or metadata value changes a hash here. Each synopsis must
  * also equal its decoded copy field by field, its size breakdown must sum
  * to the encoded size, and an engine must accept both.
  */
class DistributedBuilderGoldenSpec extends SparkSpec {

  private def specs(names: String*): Array[ColumnSpec] =
    names.map(n => ColumnSpec(n, NumericCol(1, 0), 0)).toArray

  private def sha256(bytes: Array[Byte]): String =
    MessageDigest.getInstance("SHA-256").digest(bytes).map(b => f"${b & 0xff}%02x").mkString

  /** The shape of DistributedBuilderSpec's sample: uniform, periodic and
    * cubed columns over 12000 rows, 8% nulls in the last one.
    */
  private lazy val mixedDf: DataFrame = {
    val spark0 = spark
    import spark0.implicits._
    val rng = new Random(31)
    Seq.tabulate(12000) { r =>
      val a = rng.nextInt(1000).toLong
      val c = if (rng.nextDouble() < 0.08) None else Some((math.pow(rng.nextDouble(), 3.0) * 500).toLong)
      (a, (r % 300).toLong, c)
    }.toDF("a", "b", "c")
  }

  /** Few distinct values per column, so (vi, vj) repeats across distinct
    * rows and full rows repeat too; nulls sit in different columns.
    */
  private lazy val lowCardDf: DataFrame = {
    val spark0 = spark
    import spark0.implicits._
    val rng = new Random(77)
    Seq.fill(6000) {
      val x = rng.nextInt(6).toLong
      val y = if (rng.nextDouble() < 0.05) None else Some((x * 2 + rng.nextInt(3)).toLong)
      val z = if (rng.nextDouble() < 0.03) None else Some(rng.nextInt(4).toLong * 10)
      (x, y, z, (x + rng.nextInt(2)) % 5)
    }.toDF("x", "y", "z", "w")
  }

  private def hash(df: DataFrame, names: Seq[String], m: Long,
                   seeds: Map[Int, Array[Double]] = Map.empty): String = {
    val ph = DistributedBuilder.build(df, specs(names: _*), 120000L, m, 0.001, seeds)
    val bytes = Codec.encode(ph)
    val decoded = Codec.decode(bytes)
    assertSameSynopsis(ph, decoded)
    assert(Codec.measure(ph).total == bytes.length)
    // Both hold every bin's data within its edges, as the engine checks.
    new Engine(ph)
    new Engine(decoded)
    sha256(bytes)
  }

  test("golden: mixed 3-column sample with 8% nulls") {
    assert(hash(mixedDf, Seq("a", "b", "c"), 120) ==
      "c7fc503284f18492fd7ba55a3c1aed3b12811a1d33598a882567b874a1706d5e")
  }

  test("golden: mixed sample with initial-edge seeds") {
    val seeds = Map(
      0 -> Array(100.0, 300.0, 500.0, 700.0, 900.0),
      2 -> Array(1.0, 5.0, 20.0, 60.0, 150.0, 300.0)
    )
    assert(hash(mixedDf, Seq("a", "b", "c"), 120, seeds) ==
      "4e43ddb36299188eb621550e72e0fd2f1e93e99b50afb305aea2302b8e63d2b0")
  }

  test("golden: low-cardinality frame with repeated rows") {
    assert(hash(lowCardDf, Seq("x", "y", "z", "w"), 40) ==
      "02204021648c4236833151b8a53012cf34f8b1f58b52921700dc6219e6a64cbd")
  }
}
