package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.Pipeline
import repro.data.Datasets
import repro.encoding.Codec

/** spark-submit entrypoint demonstrating the distributed construction path:
  * [[repro.Pipeline]] with its distributed builder, where one DataFrame
  * aggregation collects the sample's distinct rows with their multiplicities
  * (at most Ns × (d+1) longs on the driver), then the driver runs the
  * hypothesis-testing refinement, all column pairs in parallel.
  *
  * Usage: spark-submit --class repro.jobs.RunDistributedBuild repro.jar [dataset] [sf] [nS]
  */
object RunDistributedBuild {
  def main(args: Array[String]): Unit = {
    val dataset = args.headOption.getOrElse("power")
    val sf = args.lift(1).map(_.toDouble).getOrElse(0.05)
    val nS = args.lift(2).map(_.toInt).getOrElse(20000)
    val spark = SparkSession.builder().appName("pairwisehist-distributed-build").getOrCreate()

    val built = Pipeline.build(Datasets.byName(dataset)(spark, sf), nS, seed = 42, Pipeline.Distributed)
    val ph = built.ph
    val size = Codec.sizeBytes(ph)
    println(f"dataset=$dataset N=${ph.n} Ns=${ph.nS} d=${ph.d}")
    println(f"distributed build: ${built.buildMs}%.0f ms; synopsis $size%d bytes (${size / 1024.0}%.1f KB)")
    println(f"1-d bins per column: ${ph.hist1d.map(_.k).mkString(",")}")
    println(f"pair histograms: ${ph.hist2d.size}; total cells ${ph.hist2d.valuesIterator.map(h => h.metaI.k.toLong * h.metaJ.k).sum}")
    spark.stop()
  }
}
