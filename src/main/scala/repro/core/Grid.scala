package repro.core

/** Hierarchical spatial grid — the offline substitute for Google S2 (DESIGN S1).
  *
  * Level `L` splits longitude [-180, 180) and latitude [-90, 90) into
  * 2^L x 2^L cells. A cell is identified by `(level, x, y)` packed into a
  * single non-negative Long so it can live in a DataFrame column:
  *
  * {{{
  *   bits 58..63 : level   (0..28)
  *   bits 29..57 : x index (0..2^level-1)
  *   bits  0..28 : y index (0..2^level-1)
  * }}}
  *
  * SLIM needs three things from its spatial index: a cell id per point at a
  * configurable level, parent/child navigation between levels, and the minimum
  * geographic distance between two cells (for the proximity/alibi computation,
  * Eq. 1). All three are provided here. Cell edge length at level L is roughly
  * 20000km/2^L (latitude) by 40000km/2^L (longitude at the equator), i.e. our
  * level L is about two S2 levels coarser than S2 level L.
  */
object Grid {

  /** Maximum supported level; 28 keeps x and y within 29 bits each. */
  val MaxLevel = 28

  val EarthRadiusKm = 6371.0088

  /** Pack a (level, x, y) triple into a Long cell id. */
  def pack(level: Int, x: Int, y: Int): Long = {
    require(level >= 0 && level <= MaxLevel, s"level $level out of [0,$MaxLevel]")
    val n = 1 << level
    require(x >= 0 && x < n && y >= 0 && y < n, s"cell ($x,$y) out of level-$level range")
    (level.toLong << 58) | (x.toLong << 29) | y.toLong
  }

  def levelOf(cell: Long): Int = ((cell >>> 58) & 0x3f).toInt
  def xOf(cell: Long): Int     = ((cell >>> 29) & 0x1fffffff).toInt
  def yOf(cell: Long): Int     = (cell & 0x1fffffff).toInt

  /** Cell id of the given point at the given level. Longitude 180 wraps to
    * -180; latitude 90 is clamped into the top row. A latitude outside
    * [-90, 90] or a non-finite coordinate is rejected.
    */
  def cellOf(lat: Double, lon: Double, level: Int): Long = {
    require(lat >= -90 && lat <= 90, s"lat $lat out of range")
    require(java.lang.Double.isFinite(lon), s"lon $lon is not finite")
    val n = 1 << level
    val lonN = { val m = ((lon + 180.0) % 360.0 + 360.0) % 360.0; m } // [0, 360)
    val x = math.min(n - 1, (lonN / 360.0 * n).toInt)
    val y = math.min(n - 1, ((lat + 90.0) / 180.0 * n).toInt)
    pack(level, x, y)
  }

  /** Parent cell one level up; level-0 cell is its own parent. */
  def parent(cell: Long): Long = {
    val l = levelOf(cell)
    if (l == 0) cell else pack(l - 1, xOf(cell) >> 1, yOf(cell) >> 1)
  }

  /** Ancestor at the requested (coarser or equal) level. */
  def ancestorAt(cell: Long, level: Int): Long = {
    val l = levelOf(cell)
    require(level <= l, s"ancestor level $level above cell level $l")
    pack(level, xOf(cell) >> (l - level), yOf(cell) >> (l - level))
  }

  /** (latMin, latMax, lonMin, lonMax) bounds of a cell. */
  def bounds(cell: Long): (Double, Double, Double, Double) = {
    val l = levelOf(cell); val n = 1 << l
    val latStep = 180.0 / n; val lonStep = 360.0 / n
    val latMin = -90.0 + yOf(cell) * latStep
    val lonMin = -180.0 + xOf(cell) * lonStep
    (latMin, latMin + latStep, lonMin, lonMin + lonStep)
  }

  /** (lat, lon) of the cell center. */
  def center(cell: Long): (Double, Double) = {
    val (la0, la1, lo0, lo1) = bounds(cell)
    ((la0 + la1) / 2, (lo0 + lo1) / 2)
  }

  /** Great-circle distance in km between two points. */
  def haversineKm(lat1: Double, lon1: Double, lat2: Double, lon2: Double): Double = {
    val dLat = math.toRadians(lat2 - lat1)
    val dLon = math.toRadians(lon2 - lon1)
    val a = math.pow(math.sin(dLat / 2), 2) +
      math.cos(math.toRadians(lat1)) * math.cos(math.toRadians(lat2)) *
        math.pow(math.sin(dLon / 2), 2)
    2 * EarthRadiusKm * math.asin(math.min(1.0, math.sqrt(a)))
  }

  /** Minimum great-circle distance in km between two cells' rectangles.
    *
    * Zero when the rectangles overlap (or touch) in both dimensions.
    * Otherwise a provable lower bound on the distance of any two contained
    * points: with dLat/dLon the interval gaps (wrap-aware for longitude) and
    * phiMax the largest |latitude| touched by either cell, the haversine
    * quantity of any point pair satisfies
    * `a >= sin^2(dLat/2) + cos^2(phiMax) sin^2(dLon/2)`. The bound is tight
    * for cells at similar latitudes and asymptotically exact as cells shrink
    * — and under-estimating (never over-estimating) distance is the safe
    * direction for Eq. 1's alibi penalty.
    */
  def minDistanceKm(a: Long, b: Long): Double = {
    if (a == b) return 0.0
    // bounds(a) and bounds(b), without the tuples: this runs once per
    // bin pair of every shared window.
    val aN = 1 << levelOf(a); val bN = 1 << levelOf(b)
    val aLatStep = 180.0 / aN; val aLonStep = 360.0 / aN
    val bLatStep = 180.0 / bN; val bLonStep = 360.0 / bN
    val aLa0 = -90.0 + yOf(a) * aLatStep; val aLa1 = aLa0 + aLatStep
    val aLo0 = -180.0 + xOf(a) * aLonStep; val aLo1 = aLo0 + aLonStep
    val bLa0 = -90.0 + yOf(b) * bLatStep; val bLa1 = bLa0 + bLatStep
    val bLo0 = -180.0 + xOf(b) * bLonStep; val bLo1 = bLo0 + bLonStep
    // Latitude gap in degrees (0 when the intervals overlap).
    val dLat =
      if (aLa1 < bLa0) bLa0 - aLa1
      else if (bLa1 < aLa0) aLa0 - bLa1
      else 0.0
    // Longitude gap with wrap-around (0 when the intervals overlap).
    val dLon =
      if (aLo1 >= bLo0 && bLo1 >= aLo0) 0.0
      else {
        val eastGap = ((bLo0 - aLo1) % 360 + 360) % 360
        val westGap = ((aLo0 - bLo1) % 360 + 360) % 360
        math.min(eastGap, westGap)
      }
    if (dLat == 0.0 && dLon == 0.0) return 0.0
    val phiMax = math.max(math.max(math.abs(aLa0), math.abs(aLa1)),
      math.max(math.abs(bLa0), math.abs(bLa1)))
    val sLat = math.sin(math.toRadians(dLat) / 2)
    val sLon = math.sin(math.toRadians(math.min(dLon, 180.0)) / 2)
    val cosPhi = math.cos(math.toRadians(math.min(phiMax, 90.0)))
    val q = math.sqrt(sLat * sLat + cosPhi * cosPhi * sLon * sLon)
    2 * EarthRadiusKm * math.asin(math.min(1.0, q))
  }
}
