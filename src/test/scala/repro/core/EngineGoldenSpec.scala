package repro.core

import java.io.{ByteArrayOutputStream, DataOutputStream}
import java.security.MessageDigest

import org.scalatest.funsuite.AnyFunSuite
import repro.gd.{CategoricalCol, ColumnSpec, NumericCol}

import scala.util.Random

/** Pins the raw bits of every [[Engine]] answer for seeded query batteries
  * over one fixed synopsis built without Spark. A change to the engine that
  * alters any estimate or bound by one ulp, or turns an answer into `None`
  * (or back), changes a hash here.
  *
  * The synopsis has nulls, non-identity `NumericCol(scale, minScaled)`
  * specs and a categorical column, and is built with n > Ns so Eq 29's
  * sampling widening is active. Literals are given in the original domain:
  * sample values, values between grid points, values outside the data's
  * range, numeric strings and an unknown categorical value. Every column is
  * taken as the aggregation column against every other column, so both
  * orientations of each stored pair matrix are read.
  */
class EngineGoldenSpec extends AnyFunSuite {

  private val Ns = 12000

  private val specs = Array(
    ColumnSpec("price", NumericCol(100, -2500), 0),
    ColumnSpec("qty", NumericCol(1, 0), 0),
    ColumnSpec("temp", NumericCol(10, 150), 0),
    ColumnSpec("cat", CategoricalCol(Array("a", "b", "c", "d", "e", "f")), 0),
    ColumnSpec("flag", NumericCol(1, 0), 0)
  )

  /** Column-major GD-domain sample (NaN = null). */
  private val sample: Array[Array[Double]] = {
    val rng = new Random(909)
    val cols = Array.fill(specs.length)(new Array[Double](Ns))
    for (r <- 0 until Ns) {
      val price = math.floor(math.pow(rng.nextDouble(), 3.0) * 60000)
      val qty = if (rng.nextDouble() < 0.1) Double.NaN else math.floor(price / 600) + rng.nextInt(40)
      val temp = if (rng.nextDouble() < 0.05) Double.NaN else math.max(0.0, math.rint(rng.nextGaussian() * 80 + 300))
      val cat = math.min(5.0, math.floor(-math.log(rng.nextDouble() + 1e-12) * 1.2))
      val flag = ((cat.toInt + rng.nextInt(2)) % 3).toDouble
      Seq(price, qty, temp, cat, flag).zipWithIndex.foreach { case (v, c) => cols(c)(r) = v }
    }
    cols
  }

  private val ph = Builder.build(sample, specs, 4L * Ns, m = 150, alpha = 0.001)
  private val engine = new Engine(ph)
  private val d = specs.length

  /** Original-domain value of GD value `gd` in numeric column `j`. */
  private def orig(j: Int, gd: Double): Double = specs(j).kind match {
    case NumericCol(scale, minScaled) => (gd + minScaled) / scale
    case CategoricalCol(_)            => gd
  }

  private def literal(rng: Random, j: Int): Any = specs(j).kind match {
    case CategoricalCol(dict) =>
      if (rng.nextInt(8) == 0) "zzz" else dict(rng.nextInt(dict.length))
    case NumericCol(scale, _) =>
      val vals = sample(j).filterNot(_.isNaN)
      val v = vals(rng.nextInt(vals.length))
      rng.nextInt(8) match {
        case 0 => orig(j, vals.min - 1 - rng.nextInt(500)) // below the data
        case 1 => orig(j, vals.max + 1 + rng.nextInt(500)) // above the data
        case 2 => orig(j, v) + 0.37 / scale                // between grid points
        case 3 => orig(j, v) - 0.5 / scale                 // on a rounding tie
        case 4 => orig(j, v).toString                      // numeric string
        case 5 => orig(j, v).toInt                         // integer literal
        case _ => orig(j, v)
      }
  }

  private val ops = Seq(Op.Lt, Op.Le, Op.Gt, Op.Ge, Op.Eq, Op.Ne)

  private def cond(rng: Random, j: Int): Cond = Cond(specs(j).name, ops(rng.nextInt(ops.length)), literal(rng, j))

  /** Nested AND/OR tree over a few columns, so same-column groups are common. */
  private def tree(rng: Random, cols: IndexedSeq[Int], depth: Int): PredTree =
    if (depth == 0 || rng.nextInt(3) == 0) cond(rng, cols(rng.nextInt(cols.length)))
    else {
      val kids = List.fill(1 + rng.nextInt(3))(tree(rng, cols, depth - 1))
      if (rng.nextBoolean()) And(kids) else Or(kids)
    }

  private def randomWhere(rng: Random, i: Int): Option[PredTree] =
    if (rng.nextInt(10) == 0) None
    else {
      val cols = rng.shuffle((0 until d).toIndexedSeq).take(1 + rng.nextInt(3))
      Some(tree(rng, if (rng.nextInt(5) == 0) IndexedSeq(i) else cols, 3))
    }

  private final class Digest {
    private val buf = new ByteArrayOutputStream()
    private val out = new DataOutputStream(buf)
    def answer(r: Option[AqpResult]): Unit = r match {
      case None => out.writeByte(0)
      case Some(a) =>
        out.writeByte(1)
        Seq(a.estimate, a.lo, a.hi).foreach(x => out.writeLong(java.lang.Double.doubleToRawLongBits(x)))
    }
    def group(rs: Seq[(String, AqpResult)]): Unit = {
      out.writeInt(rs.length)
      rs.foreach { case (g, a) => out.writeUTF(g); answer(Some(a)) }
    }
    def sha256: String = {
      out.flush()
      MessageDigest.getInstance("SHA-256").digest(buf.toByteArray).map(b => f"${b & 0xff}%02x").mkString
    }
  }

  test("golden: every aggregation x op x ordered column pair, one condition each") {
    val rng = new Random(1)
    val h = new Digest
    for (fn <- AggFn.all; i <- 0 until d) {
      h.answer(engine.run(Query(fn, specs(i).name, None)))
      for (j <- 0 until d; op <- ops)
        h.answer(engine.run(Query(fn, specs(i).name, Some(Cond(specs(j).name, op, literal(rng, j))))))
    }
    assert(h.sha256 ==
      "772d02368c35fcb538963593f5b5044f564a510ff7d5564805a8df5110b2e17f")
  }

  test("golden: random nested AND/OR queries with same-column groups") {
    val rng = new Random(2)
    val h = new Digest
    for (_ <- 0 until 3000) {
      val i = rng.nextInt(d)
      h.answer(engine.run(Query(AggFn.all(rng.nextInt(AggFn.all.length)), specs(i).name, randomWhere(rng, i))))
    }
    assert(h.sha256 ==
      "d08c5cad7c2156552b9b6b3322a6997fc6d25b00c00aab532ee5d7deda920d87")
  }

  test("golden: GROUP BY the categorical column") {
    val rng = new Random(3)
    val h = new Digest
    for (_ <- 0 until 300) {
      val i = rng.nextInt(d)
      h.group(engine.runGroupBy(
        Query(AggFn.all(rng.nextInt(AggFn.all.length)), specs(i).name, randomWhere(rng, i), Some("cat"))))
    }
    assert(h.sha256 ==
      "eb168db1fa07a0f13762ff7c7ffde211d9cbe6521c1380f25b53de27d51fbcd1")
  }
}
