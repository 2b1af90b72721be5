package repro.core

import org.apache.spark.sql.DataFrame
import repro.gd.{ColumnSpec, Preprocess}
import repro.util.ColumnName.quote

/** Distributed PairwiseHist construction (the `distributed_dataflow` path).
  *
  * Algorithm 1 reads nothing but the construction sample, so the weighted
  * multiset of its distinct rows is an exact sufficient statistic for every
  * 1-d and 2-d histogram (see [[Builder]]). The one pass over the data is
  * therefore one DataFrame aggregation, `groupBy(all columns)` with a row
  * count, partially aggregated per partition by Catalyst and collected into
  * primitive column arrays plus a weight array. It has at most Ns rows, so
  * the driver keeps at most Ns × (d+1) longs' worth of arrays whatever the
  * number of pairs. Those rows go to [[Builder.buildWeighted]], the same
  * code that [[Builder.build]] feeds with weight-1 rows. The build caches
  * nothing.
  */
object DistributedBuilder {

  def build(
      gdSample: DataFrame,
      specs: Array[ColumnSpec],
      n: Long,
      m: Long,
      alpha: Double,
      initialEdges: Map[Int, Array[Double]] = Map.empty
  ): PairwiseHist = {
    val (values, wts) = distinctRows(gdSample)
    Builder.buildWeighted(values, wts, specs, n, m, alpha, initialEdges)
  }

  /** The one Spark job: distinct rows of `df` with their multiplicities, as
    * column-major doubles (NaN for null) and a weight array.
    *
    * @throws IllegalArgumentException if a value lies beyond ±2^53
    */
  private def distinctRows(df: DataFrame): (Array[Array[Double]], Array[Long]) = {
    val names = df.columns
    val d = names.length
    val keys = names.toIndexedSeq.map(c => df.col(quote(c)))
    val rows = df.groupBy(keys: _*).count().collect()
    val values = Array.fill(d)(new Array[Double](rows.length))
    val wts = new Array[Long](rows.length)
    var q = 0
    while (q < rows.length) {
      val r = rows(q)
      var c = 0
      while (c < d) {
        values(c)(q) = if (r.isNullAt(c)) Double.NaN else Preprocess.exactDouble(r.getLong(c), names(c))
        c += 1
      }
      wts(q) = r.getLong(d)
      q += 1
    }
    (values, wts)
  }
}
