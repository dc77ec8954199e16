package repro.bench

import repro.eval.TableRunners

/** Tables X, XIX, XX — single-query-modality accuracy (t = 1): single-modal
  * queries lose badly to multimodal ones; on MIT-States the auxiliary (text)
  * modality alone beats the target (image) alone.
  *
  * Paper (MIT-States, Table X): Target ResNet50 R@1=0.0363 R@5=0.1393;
  * Auxiliary LSTM R@1=0.2747 R@5=0.4343; Transformer R@1=0.2601 R@5=0.2641.
  * Tables XIX/XX extend the same to CelebA and Shopping.
  */
class TableXBench extends BenchSpec {

  private lazy val mit = TableRunners.tableX(spark)
  private lazy val others = TableRunners.tableXIXXX(spark)

  private def fmt(r: TableRunners.SingleModalityRow): String = {
    val rs = r.recalls.map { case (k, v) => f"R@$k=$v%.4f" }.mkString(" ")
    f"${r.dataset}%-18s ${r.modality}%-9s ${r.encoder.take(24)}%-24s $rs"
  }

  test("Table X: print measured single-modality rows (MIT-States)") {
    banner("Table X — single query modality (MIT-States analog)")
    mit.foreach(r => println(fmt(r)))
    assert(mit.size == 4) // 2 encoders x {target-only, aux-only}
  }

  test("Tables XIX/XX: print CelebA + Shopping single-modality rows") {
    banner("Tables XIX/XX — single-modality accuracy (CelebA, Shopping analogs)")
    others.foreach(r => println(fmt(r)))
    assert(others.size == 4)
  }

  test("Table X shape: on MIT-States the auxiliary modality alone beats the target alone") {
    val tgt = mit.filter(_.modality == "Target").map(_.recallAt(1)).max
    val aux = mit.filter(_.modality == "Auxiliary").map(_.recallAt(1)).max
    assert(aux > tgt, s"aux=$aux target=$tgt")
  }

  test("Table X shape: single-modal queries lose to full multimodal MUST") {
    // One full-query MUST row (Table III's ResNet50+LSTM) at the same
    // settings is far above any single-modality run.
    import repro.eval.{AccuracyHarness, PreparedDataset}
    import repro.mmdata.Datasets
    val cfg = TableRunners.accuracyCfg
    val full = PreparedDataset.using(spark, Datasets.mitStates, cfg.idx) { p =>
      AccuracyHarness.mustRow(p, Datasets.mitStatesEncoders.find(_.name == "ResNet50+LSTM").get, cfg)
        .recallAt(1)
    }
    val single = mit.map(_.recallAt(1)).max
    assert(full > single, s"full=$full single=$single")
  }

  test("Table XIX shape: Shopping target-only is near-useless (paper R@1 = 0)") {
    val shoppingTgt = others.filter(r => r.dataset.startsWith("Shopping") && r.modality == "Target")
    shoppingTgt.foreach(r => assert(r.recallAt(1) < 0.1, fmt(r)))
  }
}
