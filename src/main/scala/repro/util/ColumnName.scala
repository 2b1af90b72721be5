package repro.util

/** Spark parses a column name given as a string: a dot selects a field and
  * backticks quote. A column named by user data is referenced through
  * [[quote]], so `a.b` or ``x`y`` address the column of exactly that name.
  */
object ColumnName {

  /** `name` backtick-quoted, with its own backticks doubled. */
  def quote(name: String): String = "`" + name.replace("`", "``") + "`"
}
