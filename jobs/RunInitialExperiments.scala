package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.Datasets
import repro.workload.{Experiments, Runner}

/** spark-submit entrypoint for the §6.1 initial experiments (Fig 8):
  * single-predicate COUNT/SUM/AVG queries on all 11 datasets.
  *
  * Usage: spark-submit --class repro.jobs.RunInitialExperiments repro.jar [sf] [nS] [nQueries]
  */
object RunInitialExperiments {
  def main(args: Array[String]): Unit = {
    val sf = args.headOption.map(_.toDouble).getOrElse(0.01)
    val nS = args.lift(1).map(_.toInt).getOrElse(10000)
    val nQ = args.lift(2).map(_.toInt).getOrElse(40)
    val spark = SparkSession.builder().appName("pairwisehist-initial").getOrCreate()
    println(f"${"dataset"}%-10s | ${"PH err%"}%8s ${"DD err%"}%8s ${"DB err%"}%8s | ${"PH KB"}%7s ${"DD KB"}%7s ${"DB KB"}%7s")
    for (d <- Datasets.all) {
      val r = Experiments.initialExperiment(spark, d.name, sf, nS, nQ, seed = 31 + d.name.hashCode % 97)
      val ph = Runner.medianErrorPct(r.evals, "PairwiseHist")
      val dd = Runner.medianErrorPct(r.evals, "DeepDB")
      val db = Runner.medianErrorPct(r.evals, "DBEst++")
      println(f"${d.name}%-10s | $ph%8.2f $dd%8.2f $db%8.2f | ${r.built.sizePh / 1024}%7d ${r.built.sizeSpn / 1024}%7d ${r.built.sizeDbest / 1024}%7d")
    }
    spark.stop()
  }
}
