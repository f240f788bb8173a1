package geom

import "math"

// Velocity is the polar representation of a UAV velocity used by the paper:
// ground speed Gs, bearing Psi (radians, measured from the +X axis toward
// +Y), and vertical speed Vs (positive up). Equation (1) of the paper relates
// it to Cartesian components:
//
//	Vx = Gs * cos(Psi)
//	Vy = Gs * sin(Psi)
//	Vz = Vs
type Velocity struct {
	Gs  float64 // ground speed, m/s (>= 0)
	Psi float64 // bearing, radians in [0, 2*pi)
	Vs  float64 // vertical speed, m/s (positive up)
}

// Vec converts the polar representation to Cartesian components per
// equation (1). The shared argument reduction of math.Sincos makes this
// roughly half the cost of separate Cos/Sin calls; Vec sits on the
// per-step hot path of every encounter simulation.
func (v Velocity) Vec() Vec3 {
	sin, cos := math.Sincos(v.Psi)
	return Vec3{
		X: v.Gs * cos,
		Y: v.Gs * sin,
		Z: v.Vs,
	}
}
