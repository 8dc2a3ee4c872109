package repro.core

import org.scalatest.funsuite.AnyFunSuite

class SlimConfigSpec extends AnyFunSuite {

  test("defaults mirror the paper's §5.1 settings") {
    // b, the max speed and the alibi floor are constants; the rest defaults.
    val c = Slim.SlimConfig()
    assert(c.windowSec == 900)                 // 15-minute windows
    assert(c.bParam == 0.5)
    assert(Proximity.MaxSpeedKmPerMin == 2.0)  // US-highway-derived max speed
    assert(c.pairing == Similarity.MnnWithMfn) // MNN + MFN alibi pass
    assert(c.useIdf && c.useNorm)
    assert(c.lsh.isEmpty)                      // brute force unless enabled
  }

  test("scoreConfig derives the runaway distance from window and speed") {
    assert(Slim.SlimConfig().scoreConfig.runawayKm == 30.0)
    assert(Slim.SlimConfig(windowSec = 300).scoreConfig.runawayKm == 10.0)
  }

  test("scoreConfig forwards the ablation flags") {
    val sc = Slim.SlimConfig(pairing = Similarity.AllPairs, useIdf = false,
      useNorm = false).scoreConfig
    assert(sc.pairing == Similarity.AllPairs)
    assert(!sc.useIdf && !sc.useNorm)
  }

  test("LSH defaults follow the paper's §5.3 setup") {
    val l = Lsh.LshConfig()
    assert(l.t == 0.6 && l.numBuckets == 4096)
  }
}
