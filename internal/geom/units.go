// Package geom provides the 3-D vector math, velocity representations and
// closest-point-of-approach geometry used throughout the encounter
// simulations. The coordinate convention follows the paper: X and Y span the
// horizontal plane, Z points up. All quantities are SI (metres, seconds)
// unless a name says otherwise; the aviation constants used by ACAS-style
// logic are defined here once and converted.
package geom

import "math"

// Unit conversion factors between SI and the aviation units in which the
// ACAS X literature states its thresholds.
const (
	// MetersPerFoot converts feet to metres.
	MetersPerFoot = 0.3048
	// MetersPerSecondPerFPM converts feet-per-minute to m/s.
	MetersPerSecondPerFPM = MetersPerFoot / 60.0
	// G is standard gravitational acceleration in m/s^2.
	G = 9.80665
)

// NMAC (near mid-air collision) thresholds. The ACAS X cost model assigns its
// collision penalty to states inside this cylinder; the paper's accident
// detector uses the same definition of a mid-air collision.
const (
	// NMACHorizontal is the NMAC horizontal threshold: 500 ft.
	NMACHorizontal = 500 * MetersPerFoot
	// NMACVertical is the NMAC vertical threshold: 100 ft.
	NMACVertical = 100 * MetersPerFoot
)

// Feet converts a length in feet to metres.
func Feet(ft float64) float64 { return ft * MetersPerFoot }

// FPM converts a vertical rate in feet-per-minute to m/s.
func FPM(fpm float64) float64 { return fpm * MetersPerSecondPerFPM }

// WrapAngle reduces an angle to the interval [0, 2*pi). An angle already
// in range is returned unchanged, as math.Mod would return it.
func WrapAngle(a float64) float64 {
	if a >= 0 && a < 2*math.Pi {
		return a
	}
	a = math.Mod(a, 2*math.Pi)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}

// WrapSigned reduces an angle to the interval (-pi, pi]. An angle already
// in range is returned unchanged, as math.Mod would return it.
func WrapSigned(a float64) float64 {
	if a > -math.Pi && a <= math.Pi {
		return a
	}
	a = math.Mod(a, 2*math.Pi)
	switch {
	case a > math.Pi:
		a -= 2 * math.Pi
	case a <= -math.Pi:
		a += 2 * math.Pi
	}
	return a
}

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}
