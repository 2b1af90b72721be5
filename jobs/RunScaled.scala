package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.AggFn
import repro.workload.{Experiments, Runner}

/** spark-submit entrypoint for the scaled-up experiments: Table 5 (median
  * error by aggregation), Table 6 (bounds) and the Table 1 / Fig 11
  * operating-point summary, on IDEBench-lite-scaled Power and Flights.
  *
  * Usage: spark-submit --class repro.jobs.RunScaled repro.jar [targetRowsPower] [targetRowsFlights] [nS] [nQueries]
  */
object RunScaled {
  def main(args: Array[String]): Unit = {
    val rowsPower = args.headOption.map(_.toLong).getOrElse(2000000L)
    val rowsFlights = args.lift(1).map(_.toLong).getOrElse(1000000L)
    val nS = args.lift(2).map(_.toInt).getOrElse(20000)
    val nQ = args.lift(3).map(_.toInt).getOrElse(120)
    val spark = SparkSession.builder().appName("pairwisehist-scaled").getOrCreate()

    val runs = Seq(
      ("power", Experiments.scaledExperiment(spark, "power", 0.05, rowsPower, nS, nQ, seed = 1236)),
      ("flights", Experiments.scaledExperiment(spark, "flights", 0.02, rowsFlights, nS, nQ, seed = 1237))
    )
    for ((label, r) <- runs) {
      println(s"\n=== Table 5 [$label, N=${r.rows}] ===")
      for (fn <- AggFn.all) {
        val ph = Runner.medianErrorPct(r.evals, "PairwiseHist", Some(fn))
        val dd = Runner.medianErrorPct(r.evals, "DeepDB", Some(fn))
        val db = Runner.medianErrorPct(r.evals, "DBEst++", Some(fn))
        println(f"${fn.sqlName}%-10s PH=$ph%7.2f%% DeepDB=$dd%7.2f%% DBEst++=$db%7.2f%%")
      }
      println(f"overall    PH=${Runner.medianErrorPct(r.evals, "PairwiseHist")}%7.2f%% " +
        f"DeepDB=${Runner.medianErrorPct(r.evals, "DeepDB")}%7.2f%% " +
        f"DBEst++=${Runner.medianErrorPct(r.evals, "DBEst++")}%7.2f%%")

      val ddAnswered = r.evals.filter(_.results("DeepDB").nonEmpty)
      val (phOk, phW) = Runner.boundsStats(ddAnswered, "PairwiseHist")
      val (ddOk, ddW) = Runner.boundsStats(ddAnswered, "DeepDB")
      println(f"Table 6    PH ok=$phOk%.1f%% w=$phW%.1f%%  DeepDB ok=$ddOk%.1f%% w=$ddW%.1f%%")
      println(f"Summary    size PH=${r.built.sizePh / 1024}%d KB DD=${r.built.sizeSpn / 1024}%d KB DB=${r.built.sizeDbest / 1024}%d KB; " +
        f"build PH=${r.built.buildMsPh}%.0f ms; latency PH=${Runner.medianLatencyMs(r.evals, "PairwiseHist")}%.3f ms")
    }
    spark.stop()
  }
}
