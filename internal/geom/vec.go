package geom

import (
	"fmt"
	"math"
)

// Vec3 is a three-dimensional vector. X and Y are horizontal, Z is up.
type Vec3 struct {
	X, Y, Z float64
}

// Track is a surveillance track: an estimated position and velocity of one
// observed aircraft. It is the unit a multi-threat decision cycle consumes
// — one Track per intruder in view.
type Track struct {
	Pos, Vel Vec3
}

// Add returns v + o.
func (v Vec3) Add(o Vec3) Vec3 { return Vec3{X: v.X + o.X, Y: v.Y + o.Y, Z: v.Z + o.Z} }

// Sub returns v - o.
func (v Vec3) Sub(o Vec3) Vec3 { return Vec3{X: v.X - o.X, Y: v.Y - o.Y, Z: v.Z - o.Z} }

// Scale returns v multiplied by the scalar s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{X: v.X * s, Y: v.Y * s, Z: v.Z * s} }

// Dot returns the dot product of v and o.
func (v Vec3) Dot(o Vec3) float64 { return v.X*o.X + v.Y*o.Y + v.Z*o.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// NormSq returns the squared Euclidean length of v.
func (v Vec3) NormSq() float64 { return v.Dot(v) }

// HorizontalNorm returns the length of the horizontal (X, Y) projection.
func (v Vec3) HorizontalNorm() float64 { return math.Hypot(v.X, v.Y) }

// Horizontal returns v with its Z component zeroed.
func (v Vec3) Horizontal() Vec3 { return Vec3{X: v.X, Y: v.Y} }

// Unit returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// DistanceTo returns the Euclidean distance between v and o.
func (v Vec3) DistanceTo(o Vec3) float64 { return v.Sub(o).Norm() }

// VerticalDistanceTo returns |v.Z - o.Z|.
func (v Vec3) VerticalDistanceTo(o Vec3) float64 { return math.Abs(v.Z - o.Z) }

// DistanceSquaredTo returns the squared 3-D distance to o. Distance
// comparisons on hot paths (the simulation monitors observe every
// sub-step) rank candidates by squared distance and take one square root
// at the end instead of one per observation.
func (v Vec3) DistanceSquaredTo(o Vec3) float64 {
	dx, dy, dz := v.X-o.X, v.Y-o.Y, v.Z-o.Z
	return dx*dx + dy*dy + dz*dz
}

// HorizontalDistanceSquaredTo returns the squared horizontal distance to o.
func (v Vec3) HorizontalDistanceSquaredTo(o Vec3) float64 {
	dx, dy := v.X-o.X, v.Y-o.Y
	return dx*dx + dy*dy
}

// Lerp linearly interpolates between v (t=0) and o (t=1).
func (v Vec3) Lerp(o Vec3, t float64) Vec3 { return v.Add(o.Sub(v).Scale(t)) }

// String implements fmt.Stringer.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.3f, %.3f, %.3f)", v.X, v.Y, v.Z)
}
