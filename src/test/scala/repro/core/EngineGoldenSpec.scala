package repro.core

import java.io.{ByteArrayOutputStream, DataOutputStream}
import java.security.MessageDigest

import org.scalatest.funsuite.AnyFunSuite
import repro.gd.{CategoricalCol, ColumnSpec, NumericCol}

import scala.util.Random

/** Pins every [[Engine]] answer for seeded query batteries over one fixed
  * synopsis built without Spark, twice: once by raw bits and once rounded to
  * 8 significant digits. A change to the engine that alters any estimate or
  * bound by one ulp changes a raw hash; one that moves an answer beyond
  * rounding, or turns an answer into `None` (or back), changes both. A
  * change that reorders floating-point sums on purpose re-records the raw
  * hashes and must leave the rounded ones as they are.
  *
  * The synopsis has nulls, non-identity `NumericCol(scale, minScaled)`
  * specs and a categorical column, and is built with n > Ns so Eq 29's
  * sampling widening is active. Literals are given in the original domain:
  * sample values, values between grid points, values outside the data's
  * range, numeric strings and an unknown categorical value. Every column is
  * taken as the aggregation column against every other column, so both
  * orientations of each stored pair matrix are read. The last battery
  * draws its literals from the synopsis's own metadata, so they land on
  * edges, on bin extrema, between bins, inside empty bins and beyond the
  * outer edges.
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

  /** Two SHA-256 digests of the same answers: `raw` over their bits,
    * `rounded` over each value printed with `%.8g`.
    */
  private final class Digest {
    private val rawBuf = new ByteArrayOutputStream()
    private val raw = new DataOutputStream(rawBuf)
    private val roundedBuf = new ByteArrayOutputStream()
    private val rounded = new DataOutputStream(roundedBuf)
    private val both = Seq(raw, rounded)
    def answer(r: Option[AqpResult]): Unit = r match {
      case None => both.foreach(_.writeByte(0))
      case Some(a) =>
        both.foreach(_.writeByte(1))
        Seq(a.estimate, a.lo, a.hi).foreach { x =>
          raw.writeLong(java.lang.Double.doubleToRawLongBits(x))
          rounded.writeUTF(String.format(java.util.Locale.ROOT, "%.8g", Double.box(x)))
        }
    }
    def group(rs: Seq[(String, AqpResult)]): Unit = {
      both.foreach(_.writeInt(rs.length))
      rs.foreach { case (g, a) => both.foreach(_.writeUTF(g)); answer(Some(a)) }
    }
    private def sha256(out: DataOutputStream, buf: ByteArrayOutputStream): String = {
      out.flush()
      MessageDigest.getInstance("SHA-256").digest(buf.toByteArray).map(b => f"${b & 0xff}%02x").mkString
    }
    /** (rounded, raw), so a failed assertion shows both. */
    def hashes: (String, String) = (sha256(rounded, roundedBuf), sha256(raw, rawBuf))
  }

  test("golden: every aggregation x op x ordered column pair, one condition each") {
    val rng = new Random(1)
    val h = new Digest
    for (fn <- AggFn.all; i <- 0 until d) {
      h.answer(engine.run(Query(fn, specs(i).name, None)))
      for (j <- 0 until d; op <- ops)
        h.answer(engine.run(Query(fn, specs(i).name, Some(Cond(specs(j).name, op, literal(rng, j))))))
    }
    assert(h.hashes == (
      "3a79dc5b660c9bef9ea220f7a1880179912a9bf7ec18cdcfcefe78cdf45df7b5",
      "8b8a32bbb97e8ca95f9a10b319234bda2ac8daf6f20c12d17a5f7c101046e2e4"))
  }

  test("golden: random nested AND/OR queries with same-column groups") {
    val rng = new Random(2)
    val h = new Digest
    for (_ <- 0 until 3000) {
      val i = rng.nextInt(d)
      h.answer(engine.run(Query(AggFn.all(rng.nextInt(AggFn.all.length)), specs(i).name, randomWhere(rng, i))))
    }
    assert(h.hashes == (
      "43893fd94f5d0312db7883c4ea651bcccc802eee142c23c1236635904565a214",
      "d842f31ea00d2e7914d67a0bb5c637994b29c6f2c3e651d5d8d974fee055a3cc"))
  }

  test("golden: GROUP BY the categorical column") {
    val rng = new Random(3)
    val h = new Digest
    for (_ <- 0 until 300) {
      val i = rng.nextInt(d)
      h.group(engine.runGroupBy(
        Query(AggFn.all(rng.nextInt(AggFn.all.length)), specs(i).name, randomWhere(rng, i), Some("cat"))))
    }
    assert(h.hashes == (
      "3321d364729d8a8c923882938e33bcc87d6f735c2ba02c77e8cb45c3827192e7",
      "937730ce763ee554331a3f18c76328f806a1905af39d0c657d32232def588af1"))
  }

  // ---------------------------------------------- bin-boundary battery ----

  /** The metadata that a condition on column `j` reads when `i` is the
    * aggregation column: the 1-d histogram's for `j == i`, else the pair
    * histogram's dimension of `j`.
    */
  private def predMeta(i: Int, j: Int): DimMeta =
    if (i == j) ph.hist1d(j).meta
    else {
      val p = ph.pair(i, j).get
      if (p.colI == j) p.metaI else p.metaJ
    }

  /** A GD value of `meta` on or around a bin boundary: an edge, a bin's
    * vMin or vMax, a value between two bins, a value inside an empty bin,
    * or a value beyond the first or last edge.
    */
  private def boundaryGd(rng: Random, meta: DimMeta): Double = {
    val k = meta.k
    val t = rng.nextInt(k)
    rng.nextInt(7) match {
      case 0 => meta.edges(rng.nextInt(k + 1))
      case 1 => meta.vMin(t)
      case 2 => meta.vMax(t)
      case 3 => // between the data of bin t and of the next non-empty bin
        val next = (t + 1 until k).find(meta.unique(_) > 0).map(meta.vMin).getOrElse(meta.edges(k))
        meta.vMax(t) + 1 + rng.nextInt(math.max(1, (next - meta.vMax(t) - 1).toInt))
      case 4 => // inside an empty bin, if there is one
        val empty = (0 until k).filter(meta.unique(_) == 0)
        if (empty.isEmpty) meta.edges(t)
        else { val e = empty(rng.nextInt(empty.length)); math.floor((meta.edges(e) + meta.edges(e + 1)) / 2) }
      case 5 => meta.edges(0) - 1 - rng.nextInt(3)
      case _ => meta.edges(k) + rng.nextInt(3)
    }
  }

  /** `gd` as a literal of column `j`: numeric through [[orig]], categorical
    * as its dictionary value, or an unknown value off the dictionary.
    */
  private def gdLiteral(j: Int, gd: Double): Any = specs(j).kind match {
    case CategoricalCol(dict) =>
      if (gd == math.rint(gd) && gd >= 0 && gd < dict.length) dict(gd.toInt) else "zzz"
    case NumericCol(_, _) => orig(j, gd)
  }

  /** Two or three GD values within one non-empty bin of `meta`, ascending. */
  private def pointsInOneBin(rng: Random, meta: DimMeta): Seq[Double] = {
    val full = (0 until meta.k).filter(meta.unique(_) > 0)
    val t = full(rng.nextInt(full.length))
    val span = (meta.vMax(t) - meta.vMin(t)).toInt
    Seq.fill(2 + rng.nextInt(2))(meta.vMin(t) + rng.nextInt(span + 1)).distinct.sorted
  }

  /** A condition, or a same-column group, on column `j` aimed at the bin
    * boundaries of what the aggregation column `i` reads: single conditions
    * on boundary literals, `<>` inside one bin, and AND/OR groups that leave
    * two or three intervals in one bin.
    */
  private def boundaryPred(rng: Random, i: Int, j: Int): PredTree = {
    val meta = if (rng.nextInt(4) == 0) ph.hist1d(j).meta else predMeta(i, j)
    val name = specs(j).name
    def c(op: Op, gd: Double) = Cond(name, op, gdLiteral(j, gd))
    rng.nextInt(6) match {
      case 0 | 1 => c(ops(rng.nextInt(ops.length)), boundaryGd(rng, meta))
      case 2 => c(Op.Ne, pointsInOneBin(rng, meta).head)
      case 3 => Or(pointsInOneBin(rng, meta).map(c(Op.Eq, _)).toList)
      case 4 => And(pointsInOneBin(rng, meta).map(c(Op.Ne, _)).toList)
      case _ =>
        val ps = pointsInOneBin(rng, meta)
        if (rng.nextBoolean()) Or(List(c(Op.Lt, ps.head), c(Op.Gt, ps.last)))
        else And(List(c(Op.Ge, ps.head), c(Op.Le, ps.last)))
    }
  }

  /** A WHERE over one to three columns whose conditions all aim at bin
    * boundaries; a same-column group may sit beside other conditions.
    */
  private def boundaryWhere(rng: Random, i: Int): PredTree = {
    val cols = rng.shuffle((0 until d).toIndexedSeq).take(1 + rng.nextInt(3))
    val kids = cols.map(boundaryPred(rng, i, _)).toList
    if (kids.length == 1) kids.head
    else if (rng.nextBoolean()) And(kids) else Or(kids)
  }

  test("golden: literals on and around bin boundaries, scalar and GROUP BY") {
    val rng = new Random(4)
    val h = new Digest
    for (_ <- 0 until 3000) {
      val i = rng.nextInt(d)
      h.answer(engine.run(Query(AggFn.all(rng.nextInt(AggFn.all.length)), specs(i).name, Some(boundaryWhere(rng, i)))))
    }
    for (_ <- 0 until 300) {
      val i = rng.nextInt(d)
      h.group(engine.runGroupBy(
        Query(AggFn.all(rng.nextInt(AggFn.all.length)), specs(i).name, Some(boundaryWhere(rng, i)), Some("cat"))))
    }
    assert(h.hashes == (
      "4d6a158c22009f92a066ed22800a1d233bca4e8b3f1a174921da195593bc9e57",
      "2a37b6abadfe13842d03073a719f0d3e2cd5be59371fec8c648b99e9e6ba4b11"))
  }
}
