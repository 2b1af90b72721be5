package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.gd.{CategoricalCol, ColumnSpec, NumericCol}

import scala.util.Random

/** Engine accuracy against a brute-force evaluator over the same sample.
  *
  * Identity specs (scale 1, shift 0) make the GD domain equal the original
  * domain, and building with n = Ns makes rho = 1, so the only error source
  * is the synopsis itself.
  */
class EngineSpec extends AnyFunSuite {

  private val rng = new Random(211)
  private val N = 20000

  // Columns: x ~ U(0,1000); y = x/2 + noise (correlated); z skewed; g categorical code 0..4.
  private val x = Array.fill(N)(math.rint(rng.nextDouble() * 1000))
  private val y = Array.tabulate(N)(r => math.rint(x(r) / 2 + rng.nextDouble() * 100))
  private val z = Array.fill(N)(math.rint(math.pow(rng.nextDouble(), 4) * 800))
  private val g = Array.fill(N)(math.floor(rng.nextDouble() * 5))

  private val specs = Array(
    ColumnSpec("x", NumericCol(1, 0), 0),
    ColumnSpec("y", NumericCol(1, 0), 0),
    ColumnSpec("z", NumericCol(1, 0), 0),
    ColumnSpec("g", CategoricalCol(Array("g0", "g1", "g2", "g3", "g4")), 0)
  )

  private val sample = Array(x, y, z, g)
  private val ph = Builder.build(sample, specs, N.toLong, m = 200, alpha = 0.001)
  private val engine = new Engine(ph)

  // ------------------------------------------------------- exact evaluator ----

  private def evalCond(c: Cond, r: Int): Boolean = {
    val idx = specs.indexWhere(_.name == c.col)
    val v = sample(idx)(r)
    if (v.isNaN) return false
    val lit = specs(idx).toGd(c.value)
    c.op match {
      case Op.Lt => v < lit
      case Op.Le => v <= lit
      case Op.Gt => v > lit
      case Op.Ge => v >= lit
      case Op.Eq => v == lit
      case Op.Ne => v != lit
    }
  }

  private def evalTree(t: PredTree, r: Int): Boolean = t match {
    case c: Cond   => evalCond(c, r)
    case And(kids) => kids.forall(evalTree(_, r))
    case Or(kids)  => kids.exists(evalTree(_, r))
  }

  private def exact(q: Query): Option[Double] = {
    val idx = specs.indexWhere(_.name == q.aggCol)
    val sel = (0 until N).filter(r => !sample(idx)(r).isNaN && q.where.forall(evalTree(_, r)))
    if (sel.isEmpty) return None
    val vs = sel.map(sample(idx)(_))
    Some(q.agg match {
      case AggFn.Count  => vs.length.toDouble
      case AggFn.Sum    => vs.sum
      case AggFn.Avg    => vs.sum / vs.length
      case AggFn.Min    => vs.min
      case AggFn.Max    => vs.max
      case AggFn.Median => vs.sorted.apply(vs.length / 2)
      case AggFn.Var    => { val m = vs.sum / vs.length; vs.map(v => (v - m) * (v - m)).sum / vs.length }
    })
  }

  private def err(q: Query): Double = {
    val t = exact(q).get
    val e = engine.run(q).get.estimate
    if (e == t) 0.0 else if (t == 0) math.abs(e) else math.abs(e - t) / math.abs(t)
  }

  // -------------------------------------------------------------- estimates ----

  test("COUNT with a single range predicate is accurate") {
    val q = Query(AggFn.Count, "x", Some(Cond("y", Op.Le, 300.0)))
    assert(err(q) < 0.05, s"err=${err(q)}")
  }

  test("COUNT with same-column predicate uses the 1-d histogram") {
    val q = Query(AggFn.Count, "x", Some(Cond("x", Op.Ge, 500.0)))
    assert(err(q) < 0.03, s"err=${err(q)}")
  }

  test("COUNT with no predicate is exact") {
    val q = Query(AggFn.Count, "x", None)
    assert(engine.run(q).get.estimate == N.toDouble)
  }

  test("SUM over a correlated predicate") {
    val q = Query(AggFn.Sum, "x", Some(Cond("y", Op.Ge, 400.0)))
    assert(err(q) < 0.10, s"err=${err(q)}")
  }

  test("AVG restricted by a correlated range uses the pair histogram") {
    // E[x | y <= 200] is far below the global mean; independence would fail.
    val q = Query(AggFn.Avg, "x", Some(Cond("y", Op.Le, 200.0)))
    val truth = exact(q).get
    val global = x.sum / N
    assert(math.abs(truth - global) > 100) // correlation matters here
    assert(err(q) < 0.15, s"err=${err(q)} truth=$truth")
  }

  test("AND of two predicates") {
    val q = Query(AggFn.Count, "x", Some(And(List(Cond("y", Op.Le, 400.0), Cond("z", Op.Le, 100.0)))))
    assert(err(q) < 0.12, s"err=${err(q)}")
  }

  test("OR of two predicates") {
    val q = Query(AggFn.Count, "x", Some(Or(List(Cond("y", Op.Le, 100.0), Cond("z", Op.Ge, 500.0)))))
    assert(err(q) < 0.12, s"err=${err(q)}")
  }

  test("same-column AND range pair is consolidated (delayed transformation)") {
    val q = Query(AggFn.Count, "x",
      Some(And(List(Cond("y", Op.Ge, 200.0), Cond("y", Op.Le, 400.0)))))
    assert(err(q) < 0.08, s"err=${err(q)}")
  }

  test("contradictory same-column conditions give zero") {
    val q = Query(AggFn.Count, "x",
      Some(And(List(Cond("y", Op.Le, 100.0), Cond("y", Op.Ge, 500.0)))))
    assert(engine.run(q).get.estimate == 0.0)
  }

  test("equality predicate on a categorical column") {
    val q = Query(AggFn.Count, "x", Some(Cond("g", Op.Eq, "g2")))
    assert(err(q) < 0.10, s"err=${err(q)}")
  }

  test("inequality (Ne) predicate on a categorical column") {
    val q = Query(AggFn.Count, "x", Some(Cond("g", Op.Ne, "g0")))
    assert(err(q) < 0.10, s"err=${err(q)}")
  }

  test("unknown categorical literal matches nothing") {
    val q = Query(AggFn.Count, "x", Some(Cond("g", Op.Eq, "nope")))
    assert(engine.run(q).get.estimate == 0.0)
  }

  test("MIN/MAX with predicate hit the right bins") {
    val qMin = Query(AggFn.Min, "x", Some(Cond("y", Op.Ge, 300.0)))
    val qMax = Query(AggFn.Max, "x", Some(Cond("y", Op.Le, 300.0)))
    val tMin = exact(qMin).get
    val tMax = exact(qMax).get
    assert(math.abs(engine.run(qMin).get.estimate - tMin) <= 60, s"min est=${engine.run(qMin).get.estimate} t=$tMin")
    assert(math.abs(engine.run(qMax).get.estimate - tMax) <= 60, s"max est=${engine.run(qMax).get.estimate} t=$tMax")
  }

  test("MIN with no predicate is exact (bin minimum is stored)") {
    val q = Query(AggFn.Min, "x", None)
    assert(engine.run(q).get.estimate == x.min)
  }

  test("MAX with no predicate is exact") {
    val q = Query(AggFn.Max, "x", None)
    assert(engine.run(q).get.estimate == x.max)
  }

  test("MEDIAN of uniform column") {
    val q = Query(AggFn.Median, "x", Some(Cond("z", Op.Le, 400.0)))
    assert(err(q) < 0.10, s"err=${err(q)}")
  }

  test("MEDIAN of skewed column") {
    val q = Query(AggFn.Median, "z", Some(Cond("x", Op.Le, 800.0)))
    val t = exact(q).get
    val e = engine.run(q).get.estimate
    assert(math.abs(e - t) < 60, s"e=$e t=$t")
  }

  test("VAR of uniform column under predicate") {
    val q = Query(AggFn.Var, "x", Some(Cond("y", Op.Ge, 100.0)))
    assert(err(q) < 0.25, s"err=${err(q)}")
  }

  test("empty selection yields None or zero") {
    val q = Query(AggFn.Sum, "x", Some(Cond("y", Op.Ge, 999999.0)))
    assert(engine.run(q).forall(_.estimate == 0.0))
  }

  // ----------------------------------------------------------------- bounds ----

  test("bounds contain truth for a battery of random range queries") {
    val rngQ = new Random(223)
    var total = 0
    var good = 0
    for (_ <- 1 to 120) {
      val col = Seq("x", "y", "z")(rngQ.nextInt(3))
      val aggc = Seq("x", "y", "z")(rngQ.nextInt(3))
      val op = Seq(Op.Le, Op.Ge)(rngQ.nextInt(2))
      val v = math.rint(rngQ.nextDouble() * 900) + 50
      val fn = Seq(AggFn.Count, AggFn.Sum, AggFn.Avg)(rngQ.nextInt(3))
      val q = Query(fn, aggc, Some(Cond(col, op, v)))
      (exact(q), engine.run(q)) match {
        case (Some(t), Some(r)) =>
          total += 1
          if (r.contains(t)) good += 1
        case _ => ()
      }
    }
    // Paper's Table 6 reports 70-80% correct-rate on real data; with rho=1
    // and mild data our deterministic-style bounds should do much better.
    assert(total > 80)
    assert(good.toDouble / total > 0.85, s"bounds correct $good/$total")
  }

  test("result ordering lo <= est <= hi always holds") {
    val rngQ = new Random(227)
    for (_ <- 1 to 100) {
      val fn = AggFn.all(rngQ.nextInt(AggFn.all.length))
      val col = Seq("x", "y", "z")(rngQ.nextInt(3))
      val q = Query(fn, col, Some(Cond(Seq("x", "y", "z")(rngQ.nextInt(3)), Op.Le, math.rint(rngQ.nextDouble() * 1000))))
      engine.run(q).foreach { r =>
        assert(r.lo <= r.estimate + 1e-9, s"$q -> $r")
        assert(r.estimate <= r.hi + 1e-9, s"$q -> $r")
      }
    }
  }

  test("COUNT bounds shrink when rho = 1 vs subsampled synopsis") {
    val phSub = Builder.build(sample, specs, N.toLong * 100, m = 200, alpha = 0.001)
    val engSub = new Engine(phSub)
    val q = Query(AggFn.Count, "x", Some(Cond("y", Op.Le, 300.0)))
    val full = engine.run(q).get
    val sub = engSub.run(q).get
    // Same weightings, but the subsampled one is widened by Eq 29 and scaled.
    assert(full.width / full.estimate <= sub.width / sub.estimate + 1e-9)
  }

  test("one engine shared by 4 threads answers as a single-threaded one") {
    val rngQ = new Random(229)
    val cols = Seq("x", "y", "z")
    def cond() = Cond(cols(rngQ.nextInt(3)), Seq(Op.Le, Op.Ge, Op.Eq)(rngQ.nextInt(3)), math.rint(rngQ.nextDouble() * 1000))
    val queries = Vector.fill(300) {
      val where = rngQ.nextInt(3) match {
        case 0 => cond()
        case 1 => And(List(cond(), cond()))
        case _ => Or(List(cond(), cond()))
      }
      Query(AggFn.all(rngQ.nextInt(AggFn.all.length)), cols(rngQ.nextInt(3)), Some(where))
    }
    val groupBy = Query(AggFn.Avg, "x", Some(Cond("y", Op.Le, 400.0)), groupBy = Some("g"))
    def bits(r: AqpResult) = Seq(r.estimate, r.lo, r.hi).map(java.lang.Double.doubleToLongBits)
    def answers(e: Engine, qs: Seq[Query]) =
      qs.map(q => q -> e.run(q).map(bits)).toMap + (groupBy -> e.runGroupBy(groupBy).map { case (g, r) => (g, bits(r)) })

    val expected = answers(new Engine(ph), queries)
    val shared = new Engine(ph)
    val start = new java.util.concurrent.CountDownLatch(1)
    val pool = java.util.concurrent.Executors.newFixedThreadPool(4)
    try {
      val futures = (0 until 4).map { t =>
        val order = new Random(t).shuffle(queries)
        pool.submit(new java.util.concurrent.Callable[Map[Query, Any]] {
          def call(): Map[Query, Any] = { start.await(); answers(shared, order) }
        })
      }
      start.countDown()
      futures.foreach(f => assert(f.get == expected))
    } finally pool.shutdownNow()
  }

  // ----------------------------------------------------------------- groups ----

  test("GROUP BY categorical column returns one result per group") {
    val q = Query(AggFn.Count, "x", Some(Cond("y", Op.Le, 600.0)), groupBy = Some("g"))
    val groups = engine.runGroupBy(q)
    assert(groups.length == 5)
    for ((value, r) <- groups) {
      val code = specs(3).toGd(value)
      val truth = (0 until N).count(r2 => g(r2) == code && y(r2) <= 600.0 && !x(r2).isNaN)
      assert(math.abs(r.estimate - truth) / math.max(1.0, truth) < 0.15, s"group $value: ${r.estimate} vs $truth")
    }
  }

  test("GROUP BY equals each group run as WHERE (where) AND g = v, bit for bit") {
    val rngQ = new Random(233)
    val cols = Seq("x", "y", "z", "g")
    val ops = Seq(Op.Lt, Op.Le, Op.Gt, Op.Ge, Op.Eq, Op.Ne)
    val CategoricalCol(dict) = specs(3).kind: @unchecked
    def literal(col: String): Any =
      if (col != "g") math.rint(rngQ.nextDouble() * 1000)
      else if (rngQ.nextInt(6) == 0) "nope"
      else dict(rngQ.nextInt(dict.length))
    def cond(col: String) = Cond(col, ops(rngQ.nextInt(ops.length)), literal(col))
    def tree(depth: Int): PredTree =
      if (depth == 0 || rngQ.nextInt(3) == 0) cond(cols(rngQ.nextInt(cols.length)))
      else {
        val kids = List.fill(1 + rngQ.nextInt(3))(tree(depth - 1))
        if (rngQ.nextBoolean()) And(kids) else Or(kids)
      }
    // No WHERE; a bare condition on the group column for every op, with an
    // unknown literal too; a bare condition on another column; nested trees.
    val wheres: Seq[Option[PredTree]] =
      Seq(None) ++
        (for (op <- ops; v <- Seq("g0", "g3", "nope")) yield Some(Cond("g", op, v))) ++
        Seq.fill(20)(Some(cond(cols(rngQ.nextInt(3))))) ++
        Seq.fill(40)(Some(tree(3)))
    def bits(r: AqpResult) = Seq(r.estimate, r.lo, r.hi).map(java.lang.Double.doubleToRawLongBits)
    for (where <- wheres; fn <- AggFn.all; aggCol <- cols) {
      val q = Query(fn, aggCol, where, groupBy = Some("g"))
      val want = dict.toSeq.flatMap { v =>
        val c = Cond("g", Op.Eq, v)
        val perGroup = q.copy(groupBy = None, where = Some(where.fold[PredTree](c)(w => And(List(w, c)))))
        engine.run(perGroup).map(r => v -> bits(r))
      }
      val got = engine.runGroupBy(q).map { case (v, r) => v -> bits(r) }
      assert(got == want, q.toString)
    }
  }

  test("an engine rejects a pair dimension whose bin holds a value on its upper edge") {
    val ((i, j), h) = ph.hist2d.head
    val t = (0 until h.metaI.k - 1).find(h.metaI.unique(_) > 0).get
    val vMax = h.metaI.vMax.clone()
    vMax(t) = h.metaI.edges(t + 1)
    val bad = ph.copy(hist2d = ph.hist2d + ((i, j) -> h.copy(metaI = h.metaI.copy(vMax = vMax))))
    val e = intercept[IllegalArgumentException](new Engine(bad))
    assert(e.getMessage.contains(s"dimension ${specs(h.colI).name}"), e.getMessage)
    assert(e.getMessage.contains(s"bin $t "), e.getMessage)
  }

  test("GROUP BY on non-categorical column is rejected") {
    val q = Query(AggFn.Count, "x", None, groupBy = Some("y"))
    intercept[IllegalArgumentException](engine.runGroupBy(q))
  }

  // ------------------------------------------------------------ GD literals ----

  test("literal transformation applies scale and shift (§5.1)") {
    // Fresh build with non-identity spec on x: scale 10, min -100 (gd = 10x + 100).
    val gdSpecs = specs.updated(0, ColumnSpec("x", NumericCol(10, -100), 0L))
    val gdX = x.map(v => v * 10 + 100)
    val ph2 = Builder.build(Array(gdX, y, z, g), gdSpecs, N.toLong, 200, 0.001)
    val eng2 = new Engine(ph2)
    val q = Query(AggFn.Avg, "x", Some(Cond("x", Op.Le, 500.0))) // original-domain literal
    val truth = {
      val vs = x.filter(_ <= 500.0)
      vs.sum / vs.length
    }
    val est = eng2.run(q).get.estimate
    assert(math.abs(est - truth) / truth < 0.05, s"est=$est truth=$truth")
  }
}
