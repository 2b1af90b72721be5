package repro.core

import java.security.MessageDigest

import org.scalatest.funsuite.AnyFunSuite
import repro.core.SynopsisAssertions.assertSameSynopsis
import repro.encoding.Codec
import repro.gd.{ColumnSpec, NumericCol}

import scala.util.Random

/** Pins the encoded bytes of [[Builder.build]] synopses on fixed-seed,
  * column-major samples generated without Spark. A change to the builder
  * that alters any edge, count or metadata value changes a hash here.
  *
  * The first three samples are the frames of DistributedBuilderGoldenSpec,
  * drawn in the same RNG order with the same column names, so both entry
  * points must reproduce the same constants. Each synopsis must also equal
  * its decoded copy field by field, its size breakdown must sum to the
  * encoded size, and an engine must accept both.
  */
class BuilderGoldenSpec extends AnyFunSuite {

  private def specs(names: Seq[String]): Array[ColumnSpec] =
    names.map(n => ColumnSpec(n, NumericCol(1, 0), 0)).toArray

  private def sha256(bytes: Array[Byte]): String =
    MessageDigest.getInstance("SHA-256").digest(bytes).map(b => f"${b & 0xff}%02x").mkString

  private def columns(rows: Seq[Seq[Double]]): Array[Array[Double]] =
    Array.tabulate(rows.head.length)(c => rows.map(_(c)).toArray)

  private def orNull(v: Option[Long]): Double = v.fold(Double.NaN)(_.toDouble)

  /** DistributedBuilderGoldenSpec's `mixedDf`: columns a, b, c. */
  private lazy val mixed: Array[Array[Double]] = {
    val rng = new Random(31)
    columns(Seq.tabulate(12000) { r =>
      val a = rng.nextInt(1000).toLong
      val c = if (rng.nextDouble() < 0.08) None else Some((math.pow(rng.nextDouble(), 3.0) * 500).toLong)
      Seq(a.toDouble, (r % 300).toDouble, orNull(c))
    })
  }

  /** DistributedBuilderGoldenSpec's `lowCardDf`: columns x, y, z, w. */
  private lazy val lowCard: Array[Array[Double]] = {
    val rng = new Random(77)
    columns(Seq.fill(6000) {
      val x = rng.nextInt(6).toLong
      val y = if (rng.nextDouble() < 0.05) None else Some((x * 2 + rng.nextInt(3)).toLong)
      val z = if (rng.nextDouble() < 0.03) None else Some(rng.nextInt(4).toLong * 10)
      Seq(x.toDouble, orNull(y), orNull(z), ((x + rng.nextInt(2)) % 5).toDouble)
    })
  }

  /** 13 columns × 16000 rows covering every column shape the builder
    * branches on. All values are non-negative integers (the codec's
    * varlongs reject negatives).
    */
  private val wideNames = Seq(
    "uniform", "skewed", "bimodal", "lowcard", "corr", "constant", "null30",
    "allnull", "expo", "corrskew", "periodic", "gauss", "zipf"
  )

  private lazy val wide: Array[Array[Double]] = {
    val rng = new Random(2024)
    columns(Seq.tabulate(16000) { r =>
      val uniform = rng.nextInt(5000).toDouble
      val skewed = math.floor(math.pow(rng.nextDouble(), 4.0) * 20000)
      val bimodal = if (rng.nextBoolean()) rng.nextInt(200).toDouble else 8000.0 + rng.nextInt(200)
      val lowcard = rng.nextInt(7).toDouble
      val corr = uniform + rng.nextInt(50)
      val null30 = if (rng.nextDouble() < 0.3) Double.NaN else rng.nextInt(1000).toDouble
      val expo = math.rint(-math.log(rng.nextDouble() + 1e-12) * 300)
      val corrskew = math.floor(skewed / 3) + rng.nextInt(10)
      val gauss = math.max(0.0, math.rint(rng.nextGaussian() * 400 + 2000))
      val zipf = math.floor(math.pow(rng.nextDouble(), 6.0) * 30)
      Seq(uniform, skewed, bimodal, lowcard, corr, 42.0, null30,
        Double.NaN, expo, corrskew, (r % 97).toDouble, gauss, zipf)
    })
  }

  private val wideSeeds: Map[Int, Array[Double]] = Map(
    0 -> Array.tabulate(19)(q => 250.0 * (q + 1)),
    1 -> Array(1.0, 10.0, 100.0, 1000.0, 5000.0, 12000.0),
    2 -> Array(50.0, 150.0, 8050.0, 8150.0),
    5 -> Array(42.0),
    6 -> Array(100.0, 333.0, 500.0, 900.0),
    7 -> Array(3.0, 7.0),
    12 -> Array(1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0)
  )

  /** Values on multiples of 8 with initial edges at multiples of 64, so
    * 1-d and 2-d split midpoints fall on sample values.
    */
  private lazy val dyadic: Array[Array[Double]] = {
    val rng = new Random(5)
    columns(Seq.fill(8000) {
      val p = 8.0 * math.floor(math.pow(rng.nextDouble(), 2.0) * 129)
      val q = 8.0 * ((p / 8 + rng.nextInt(9)) % 129)
      Seq(p, q, 8.0 * rng.nextInt(129))
    })
  }

  private val dyadicSeeds: Map[Int, Array[Double]] =
    (0 to 2).map(_ -> Array.tabulate(15)(k => 64.0 * (k + 1))).toMap

  private def hash(sample: Array[Array[Double]], names: Seq[String], m: Long,
                   seeds: Map[Int, Array[Double]] = Map.empty): String = {
    val ph = Builder.build(sample, specs(names), 120000L, m, 0.001, seeds)
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
    assert(hash(mixed, Seq("a", "b", "c"), 120) ==
      "c7fc503284f18492fd7ba55a3c1aed3b12811a1d33598a882567b874a1706d5e")
  }

  test("golden: mixed sample with initial-edge seeds") {
    val seeds = Map(
      0 -> Array(100.0, 300.0, 500.0, 700.0, 900.0),
      2 -> Array(1.0, 5.0, 20.0, 60.0, 150.0, 300.0)
    )
    assert(hash(mixed, Seq("a", "b", "c"), 120, seeds) ==
      "4e43ddb36299188eb621550e72e0fd2f1e93e99b50afb305aea2302b8e63d2b0")
  }

  test("golden: low-cardinality frame with repeated rows") {
    assert(hash(lowCard, Seq("x", "y", "z", "w"), 40) ==
      "02204021648c4236833151b8a53012cf34f8b1f58b52921700dc6219e6a64cbd")
  }

  test("golden: wide 13-column sample") {
    assert(hash(wide, wideNames, 160) ==
      "bbb7eccc3353ffb804c3f48e0d6468626aaf1034dd0426f284c544565d2c5121")
  }

  test("golden: wide 13-column sample with initial-edge seeds") {
    assert(hash(wide, wideNames, 160, wideSeeds) ==
      "50fea6ceed99632e85841194764dc28ee38c310dc8f8257ae2aa7ba0d4616ce5")
  }

  test("golden: split midpoints on sample values") {
    assert(hash(dyadic, Seq("p", "q", "r"), 40, dyadicSeeds) ==
      "ec681c680573bd4765ccc2f09990da8b395e72e0daf21a4ad62126c6379b40f2")
  }
}
