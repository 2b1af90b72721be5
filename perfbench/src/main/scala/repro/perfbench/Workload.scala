package repro.perfbench

import java.nio.file.Path

/** One benchmark workload: the dataset it runs on and how the synopsis is
  * built.
  *
  * Its inputs are committed under `perfbench/workloads/<name>`: the dataset
  * as Parquet (`data/`), the timed query pool with exact answers
  * (`pool.jsonl.gz`) and the warm-up queries (`warmup.jsonl.gz`). Nothing
  * in them is drawn by the system under test, so every commit runs the same
  * data and the same queries; the run's seed orders the timed streams.
  *
  * Sizes are scaled down from the paper's operating points so that a whole
  * run takes about a minute: at these sizes set-up cost is set by the
  * number of Spark jobs and by refinement per column pair, not by the row
  * count.
  */
final case class Workload(name: String, nS: Int, distributed: Boolean) {
  def dir(root: Path): Path = root.resolve("perfbench").resolve("workloads").resolve(name)
}

object Workload {

  val all: Seq[Workload] = Seq(
    // Flights stand-in (20k rows, 20 columns, 190 pairs, spiky), Ns close
    // to N: the local builder's 2-d refinement grows with the pair count,
    // ingest runs one Spark job per string column and two per column for
    // the GD bases, and GROUP BY over the categorical columns re-evaluates
    // the WHERE tree once per dictionary value.
    Workload("flights-build", nS = 16000, distributed = false),
    // IDEBench-lite Power scaled to 100k rows at the paper's Ns = 20k with
    // GD seeds, the synopsis built by the Spark-aggregation path of
    // Algorithm 1 from a DataFrame sample, then the Table 5 scalar stream.
    Workload("power-dist", nS = 20000, distributed = true)
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(s"unknown workload $name"))
}
