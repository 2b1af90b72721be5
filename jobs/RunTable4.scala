package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.Datasets
import repro.workload.Experiments

/** spark-submit entrypoint for Table 4: dataset inventory.
  *
  * Usage: spark-submit --class repro.jobs.RunTable4 repro.jar [sf]
  */
object RunTable4 {
  def main(args: Array[String]): Unit = {
    val sf = args.headOption.map(_.toDouble).getOrElse(0.01)
    val spark = SparkSession.builder().appName("pairwisehist-table4").getOrCreate()
    println(f"${"dataset"}%-10s | ${"rows"}%9s ${"cols"}%5s ${"size MB"}%8s | ${"paper rows"}%10s ${"cols"}%5s ${"MB"}%7s")
    for (d <- Datasets.all) {
      val s = Experiments.datasetStats(spark, d.name, sf)
      println(f"${s.name}%-10s | ${s.rows}%9d ${s.cols}%5d ${s.sizeMB}%8.1f | ${s.paperRows}%10d ${s.paperCols}%5d ${s.paperSizeMB}%7.1f")
    }
    spark.stop()
  }
}
