package repro.core

/** Time-location bin proximity (paper Eq. 1, DESIGN S3).
  *
  * For two bins from the *same* temporal window (the pairing stage only ever
  * builds same-window pairs, so the paper's indicator T is 1 by construction):
  *
  * {{{ P = log2(2 - min(d / R, 2)) }}}
  *
  * where `d` is the minimum geographic distance between the two cells and
  * `R = |w| * alpha` is the *runaway distance* — the farthest an entity can
  * travel within one window at maximum speed `alpha`.
  *
  *  - d = 0      -> P = 1 (same cell, maximal award)
  *  - d = R      -> P = 0 (neutral)
  *  - d in (R,2R)-> P < 0 (alibi: counter-evidence, steeply negative)
  *  - d >= 2R    -> Eq. 1 diverges to -inf; we clamp at [[DefaultFloor]] so
  *                  one alibi pair is strong but finite counter-evidence.
  */
object Proximity {

  /** Clamp for the alibi penalty (DESIGN S3): one floored alibi pair cancels
    * twenty perfect-match pairs.
    */
  val DefaultFloor: Double = -20.0

  /** Maximum speed α, km/minute: the paper's (§5.1, US-highway derived). */
  val MaxSpeedKmPerMin: Double = 2.0

  private val Log2 = math.log(2.0)

  /** Runaway distance in km for a window of `windowSec` seconds at maximum
    * speed `speedKmPerMin` km/minute (SLIM's is [[MaxSpeedKmPerMin]]).
    */
  def runawayKm(windowSec: Long, speedKmPerMin: Double): Double =
    (windowSec / 60.0) * speedKmPerMin

  /** Proximity of two same-window bins at cell distance `dKm`, at least [[DefaultFloor]]. */
  def proximity(dKm: Double, runawayKm: Double): Double = {
    require(runawayKm > 0, "runaway distance must be positive")
    val ratio = math.min(dKm / runawayKm, 2.0)
    val raw = if (ratio >= 2.0) Double.NegativeInfinity else math.log(2.0 - ratio) / Log2
    math.max(raw, DefaultFloor)
  }
}
