package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.core.Types.MMObject

class VectorStoreSpec extends AnyFunSuite with SparkSpec {

  test("collect rejects a NaN or infinite object component, naming the object") {
    import spark.implicits._
    for (x <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val objects = Seq(MMObject(0L, Seq(Seq(1.0, 0.0))), MMObject(1L, Seq(Seq(0.6, x)))).toDS()
      val e = intercept[IllegalArgumentException](VectorStore.collect(objects))
      assert(e.getMessage.contains("object 1"), s"$x: ${e.getMessage}")
    }
  }
}
