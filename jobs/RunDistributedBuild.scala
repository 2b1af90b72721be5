package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.DistributedBuilder
import repro.data.Datasets
import repro.encoding.Codec
import repro.gd.Preprocess

/** spark-submit entrypoint demonstrating the distributed construction path:
  * one DataFrame aggregation collects the sample's distinct rows with their
  * multiplicities (at most Ns × (d+1) longs on the driver), then the driver
  * runs the hypothesis-testing refinement, all column pairs in parallel.
  * Prints the number of distinct weighted rows next to the build time, so
  * the driver-memory cost of a given Ns can be checked.
  *
  * Usage: spark-submit --class repro.jobs.RunDistributedBuild repro.jar [dataset] [sf] [nS]
  */
object RunDistributedBuild {
  def main(args: Array[String]): Unit = {
    val dataset = args.headOption.getOrElse("power")
    val sf = args.lift(1).map(_.toDouble).getOrElse(0.05)
    val nS = args.lift(2).map(_.toInt).getOrElse(20000)
    val spark = SparkSession.builder().appName("pairwisehist-distributed-build").getOrCreate()

    val df = Datasets.byName(dataset)(spark, sf)
    val n = df.count()
    val pre = Preprocess.run(df)
    val frac = math.min(1.0, nS.toDouble / n)
    val sampleDf = if (frac >= 1.0) pre.df else pre.df.sample(withReplacement = false, frac, 42)

    val t0 = System.nanoTime()
    val ph = DistributedBuilder.build(sampleDf, pre.specs, n, m = math.max(2L, nS / 100), alpha = 0.001)
    val buildMs = (System.nanoTime() - t0) / 1e6

    val size = Codec.sizeBytes(ph)
    val distinctRows = sampleDf.distinct().count()
    println(f"dataset=$dataset N=$n Ns=${ph.nS} d=${ph.d}")
    println(f"distributed build: $buildMs%.0f ms over $distinctRows%d distinct weighted rows; synopsis $size%d bytes (${size / 1024.0}%.1f KB)")
    println(f"1-d bins per column: ${ph.hist1d.map(_.k).mkString(",")}")
    println(f"pair histograms: ${ph.hist2d.size}; total cells ${ph.hist2d.valuesIterator.map(h => h.metaI.k.toLong * h.metaJ.k).sum}")
    spark.stop()
  }
}
