package repro.perfbench

import java.nio.file.{Files, Path}
import java.util.zip.GZIPInputStream

import scala.io.Source
import scala.util.{Failure, Random, Success, Try}

import org.json4s._
import org.json4s.jackson.JsonMethods.parse
import repro.core.{AggFn, And, AqpResult, Cond, Engine, Op, Or, Query}

/** A workload's committed queries (see [[Workload]]): the timed pool, each
  * scalar query with its exact answer, and the warm-up queries, none of
  * which is in the pool. The line format is described in
  * `perfbench/tools/truth.py`, which recomputes the answers with DuckDB.
  */
final case class QueryPool(scalar: Vector[(Query, Double)], groupBy: Vector[Query], warmScalar: Vector[Query], warmGroupBy: Vector[Query])

object QueryPool {

  def load(dir: Path): QueryPool = {
    val (scalar, groupBy) = read(dir.resolve("pool.jsonl.gz")).partition(_._1.groupBy.isEmpty)
    val (warmScalar, warmGroupBy) = read(dir.resolve("warmup.jsonl.gz")).map(_._1).partition(_.groupBy.isEmpty)
    val pool = QueryPool(scalar.map { case (q, t) => (q, t.get) }, groupBy.map(_._1), warmScalar, warmGroupBy)
    val timed = pool.scalar.map(_._1).toSet ++ pool.groupBy
    require(timed.size == scalar.length + groupBy.length, s"$dir: the pool repeats a query")
    require(!(warmScalar ++ warmGroupBy).exists(timed), s"$dir: a warm-up query is in the pool")
    pool
  }

  private def read(file: Path): Vector[(Query, Option[Double])] = {
    val src = Source.fromInputStream(new GZIPInputStream(Files.newInputStream(file)), "UTF-8")
    try src.getLines().filter(_.nonEmpty).map(line).toVector finally src.close()
  }

  private val aggs: Map[String, AggFn] = AggFn.all.map(a => a.sqlName -> a).toMap
  private val ops: Map[String, Op] = Seq(Op.Lt, Op.Le, Op.Gt, Op.Ge, Op.Eq, Op.Ne).map(o => o.sql -> o).toMap

  private def line(text: String): (Query, Option[Double]) = {
    val j = parse(text)
    def str(f: String) = (j \ f).asInstanceOf[JString].s
    val conds = (j \ "preds").asInstanceOf[JArray].arr.map {
      case JArray(List(JString(c), JString(op), v)) =>
        val value: Any = v match {
          case JString(s) => s
          case JDouble(d) => d
          case JInt(i)    => i.toDouble
          case other      => throw new IllegalArgumentException(s"bad literal $other in $text")
        }
        Cond(c, ops(op), value)
      case other => throw new IllegalArgumentException(s"bad predicate $other in $text")
    }
    val where = str("conn") match {
      case ""    => conds match { case List(c) => c; case _ => throw new IllegalArgumentException(text) }
      case "and" => And(conds)
      case "or"  => Or(conds)
    }
    val groupBy = j \ "group" match { case JString(g) => Some(g); case _ => None }
    val truth = j \ "truth" match {
      case JDouble(d) => Some(d)
      case JInt(i)    => Some(i.toDouble)
      case _          => None
    }
    (Query(aggs(str("agg")), str("col"), Some(where), groupBy), truth)
  }
}

/** One run's timed streams: the whole pool in the seed's order, so every
  * run sends the same mix and no query twice.
  */
final case class RunQueries(stream: Vector[(Query, Double)], groupBy: Vector[Query])

object RunQueries {
  def draw(pool: QueryPool, seed: Long): RunQueries = {
    val rng = new Random(seed)
    RunQueries(rng.shuffle(pool.scalar), rng.shuffle(pool.groupBy))
  }
}

/** One timed engine call and what came of it. `failure` is one of
  * exception, none, nonfinite or inverted.
  */
final case class Outcome(q: Query, us: Double, results: Seq[AqpResult], failure: Option[String])

object Stream {

  private def check(r: AqpResult): Option[String] =
    if (Seq(r.estimate, r.lo, r.hi).exists(v => v.isNaN || v.isInfinite)) Some("nonfinite")
    else if (!(r.lo <= r.estimate && r.estimate <= r.hi)) Some("inverted")
    else None

  private def timed(q: Query, call: => Seq[AqpResult]): Outcome = {
    val t0 = System.nanoTime()
    val r = Try(call)
    val us = (System.nanoTime() - t0) / 1e3
    val failure = r match {
      case Failure(_)                => Some("exception")
      case Success(rs) if rs.isEmpty => Some("none")
      case Success(rs)               => rs.flatMap(check).headOption
    }
    Outcome(q, us, r.getOrElse(Nil), failure)
  }

  /** Closed loop, one client: each query is sent when the previous answer
    * has arrived.
    */
  def scalar(engine: Engine, qs: Seq[Query]): Seq[Outcome] =
    qs.map(q => timed(q, engine.run(q).toSeq))

  def groupBy(engine: Engine, qs: Seq[Query]): Seq[Outcome] =
    qs.map(q => timed(q, engine.runGroupBy(q).map(_._2)))

  /** Both streams in one closed loop, a GROUP BY query after every
    * `scalar.length / groupBy.length` scalar ones, until both end or the
    * deadline passes. Interleaving spreads each stream over the whole timed
    * window: the host's speed drifts from second to second, and a stream
    * confined to a few seconds carries that drift into its percentiles.
    */
  def interleaved(engine: Engine, scalar: IndexedSeq[Query], groupBy: IndexedSeq[Query], deadlineNs: Long): (Seq[Outcome], Seq[Outcome]) = {
    val perGroupBy = math.max(1, scalar.length / math.max(1, groupBy.length))
    val s = Vector.newBuilder[Outcome]
    val g = Vector.newBuilder[Outcome]
    var i = 0
    var k = 0
    while ((i < scalar.length || k < groupBy.length) && System.nanoTime() < deadlineNs) {
      if (k == groupBy.length || (i < scalar.length && i < (k + 1) * perGroupBy)) {
        s += timed(scalar(i), engine.run(scalar(i)).toSeq)
        i += 1
      } else {
        g += timed(groupBy(k), engine.runGroupBy(groupBy(k)).map(_._2))
        k += 1
      }
    }
    (s.result(), g.result())
  }
}

/** Order statistics and the accuracy figures of the paper's tables. */
object Stats {

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      val n = s.length
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

  /** Nearest-rank percentile, `p` in (0, 1]. */
  def pct(xs: Seq[Double], p: Double): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      s(math.min(s.length - 1, math.max(0, math.ceil(p * s.length).toInt - 1)))
    }

  /** Relative error |est − truth| / |truth|; 1 when the truth is 0 and the
    * estimate is not.
    */
  def relError(est: Double, truth: Double): Double =
    if (est == truth) 0.0
    else if (math.abs(truth) < 1e-12) 1.0
    else math.abs(est - truth) / math.abs(truth)

  /** Table 6: the share (%) of answers whose bounds contain the truth, and
    * the median bound width as a share (%) of a non-zero truth.
    */
  def bounds(answered: Seq[(AqpResult, Double)]): (Double, Double) = {
    val correct = 100.0 * answered.count { case (r, t) => t >= r.lo && t <= r.hi } / answered.length
    val widths = answered.collect { case (r, t) if math.abs(t) > 1e-12 => (r.hi - r.lo) / math.abs(t) * 100 }
    (correct, median(widths))
  }
}
