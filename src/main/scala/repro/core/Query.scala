package repro.core

/** Query AST for the supported SQL fragment (§3):
  *
  * SELECT F(Xi) FROM D WHERE P1 AND/OR P2 ... GROUP BY Xg
  *
  * with F one of the seven aggregation functions, conditions of the form
  * "Xj OP LITERAL" and arbitrary AND/OR nesting.
  */
sealed trait AggFn { def sqlName: String }
object AggFn {
  case object Count  extends AggFn { val sqlName = "count"  }
  case object Sum    extends AggFn { val sqlName = "sum"    }
  case object Avg    extends AggFn { val sqlName = "avg"    }
  case object Min    extends AggFn { val sqlName = "min"    }
  case object Max    extends AggFn { val sqlName = "max"    }
  case object Median extends AggFn { val sqlName = "median" }
  case object Var    extends AggFn { val sqlName = "var_pop" }
  val all: Seq[AggFn] = Seq(Count, Sum, Avg, Min, Max, Median, Var)
}

sealed trait Op { def sql: String }
object Op {
  case object Lt extends Op { val sql = "<"  }
  case object Le extends Op { val sql = "<=" }
  case object Gt extends Op { val sql = ">"  }
  case object Ge extends Op { val sql = ">=" }
  case object Eq extends Op { val sql = "="  }
  case object Ne extends Op { val sql = "<>" }
}

sealed trait PredTree {
  /** All columns referenced anywhere in the tree. */
  def columns: Set[String] = this match {
    case Cond(c, _, _) => Set(c)
    case And(cs)       => cs.flatMap(_.columns).toSet
    case Or(cs)        => cs.flatMap(_.columns).toSet
  }

  /** True if any OR connective appears (DeepDB/DBEst++ do not support OR). */
  def hasOr: Boolean = this match {
    case _: Cond => false
    case And(cs) => cs.exists(_.hasOr)
    case _: Or   => true
  }

  /** The conditions of an AND-only tree, or None if it contains an OR. */
  def flattenAnd: Option[List[Cond]] = this match {
    case c: Cond => Some(List(c))
    case And(cs) => cs.foldLeft(Option(List.empty[Cond]))((acc, k) => acc.flatMap(a => k.flattenAnd.map(a ++ _)))
    case _: Or   => None
  }

  def toSql: String = this match {
    case Cond(c, op, v) => s"$c ${op.sql} ${PredTree.lit(v)}"
    case And(cs)        => cs.map(x => s"(${x.toSql})").mkString(" AND ")
    case Or(cs)         => cs.map(x => s"(${x.toSql})").mkString(" OR ")
  }
}
object PredTree {
  def lit(v: Any): String = v match {
    case s: String => "'" + s.replace("'", "''") + "'"
    case other     => other.toString
  }
}

/** Atomic condition `col OP value` with the literal in the ORIGINAL domain;
  * the engine applies GD pre-processing to it at parse time (§5.1).
  */
final case class Cond(col: String, op: Op, value: Any) extends PredTree
final case class And(children: List[PredTree]) extends PredTree
final case class Or(children: List[PredTree]) extends PredTree

final case class Query(
    agg: AggFn,
    aggCol: String,
    where: Option[PredTree],
    groupBy: Option[String] = None
) {
  def columns: Set[String] =
    Set(aggCol) ++ where.map(_.columns).getOrElse(Set.empty) ++ groupBy.toSet

  /** Exact-execution SQL over table `t` (ground truth / oracle side).
    * COUNT is COUNT(aggCol): PairwiseHist counts rows with a non-null
    * aggregation value, matching SQL aggregate null semantics.
    */
  def toSql(table: String): String = {
    val aggExpr = s"${agg.sqlName}($aggCol) AS result"
    val whereSql = where.map(w => s" WHERE ${w.toSql}").getOrElse("")
    groupBy match {
      case Some(g) => s"SELECT $g AS grp, $aggExpr FROM $table$whereSql GROUP BY $g"
      case None    => s"SELECT $aggExpr FROM $table$whereSql"
    }
  }
}
