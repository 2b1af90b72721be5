package repro.core

import org.scalatest.Assertions._
import repro.gd.{CategoricalCol, ColumnSpec, NumericCol}

/** Field-by-field equality of synopses: every parameter, spec and null
  * count, and for each 1-d and pair dimension its edges, vMin, vMax, unique
  * and counts, plus each pair's count matrix.
  */
object SynopsisAssertions {

  def assertDimEqual(x: DimMeta, y: DimMeta, label: String): Unit = {
    assert(x.edges.toSeq == y.edges.toSeq, s"$label edges")
    assert(x.counts.toSeq == y.counts.toSeq, s"$label counts")
    assert(x.vMin.toSeq == y.vMin.toSeq, s"$label vMin")
    assert(x.vMax.toSeq == y.vMax.toSeq, s"$label vMax")
    assert(x.unique.toSeq == y.unique.toSeq, s"$label unique")
  }

  private def render(s: ColumnSpec): String = s.kind match {
    case NumericCol(scale, minScaled) => s"${s.name}:${s.nullCount}:num($scale,$minScaled)"
    case CategoricalCol(dict)         => s"${s.name}:${s.nullCount}:cat(${dict.mkString("|")})"
  }

  def assertSameSynopsis(x: PairwiseHist, y: PairwiseHist): Unit = {
    assert(x.n == y.n && x.nS == y.nS && x.m == y.m, "n, nS, m")
    assert(java.lang.Double.compare(x.alpha, y.alpha) == 0, "alpha")
    assert(x.specs.map(render).toSeq == y.specs.map(render).toSeq, "specs")
    assert(x.nullCounts.toSeq == y.nullCounts.toSeq, "null counts")
    assert(x.d == y.d, "columns")
    for (i <- 0 until x.d) {
      assert(x.hist1d(i).col == y.hist1d(i).col, s"col $i index")
      assertDimEqual(x.hist1d(i).meta, y.hist1d(i).meta, s"col $i")
    }
    assert(x.hist2d.keySet == y.hist2d.keySet, "pairs")
    for ((k, a) <- x.hist2d) {
      val b = y.hist2d(k)
      assert(a.colI == b.colI && a.colJ == b.colJ, s"pair $k columns")
      assertDimEqual(a.metaI, b.metaI, s"pair $k dim i")
      assertDimEqual(a.metaJ, b.metaJ, s"pair $k dim j")
      assert(a.counts.map(_.toSeq).toSeq == b.counts.map(_.toSeq).toSeq, s"pair $k matrix")
    }
  }
}
