package org.apache.spark.sql

/** Test access to the number of query plans a session holds cached; Spark
  * keeps the count package-private.
  */
object CachedPlans {
  def count(spark: SparkSession): Int = spark.sharedState.cacheManager.numCachedEntries
}
