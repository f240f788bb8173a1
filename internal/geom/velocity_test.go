package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVelocityVecKnownValues(t *testing.T) {
	tests := []struct {
		name string
		v    Velocity
		want Vec3
	}{
		{"east", Velocity{Gs: 10, Psi: 0, Vs: 0}, Vec3{10, 0, 0}},
		{"north", Velocity{Gs: 10, Psi: math.Pi / 2, Vs: 0}, Vec3{0, 10, 0}},
		{"west-climbing", Velocity{Gs: 5, Psi: math.Pi, Vs: 2}, Vec3{-5, 0, 2}},
		{"south-descending", Velocity{Gs: 4, Psi: 3 * math.Pi / 2, Vs: -1}, Vec3{0, -4, -1}},
		{"zero", Velocity{}, Vec3{}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Vec(); !vecAlmostEqual(got, tt.want, 1e-12) {
				t.Errorf("Vec() = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestVelocityRoundTrip is the property test for equation (1): converting a
// polar velocity to Cartesian and back must reproduce it.
func TestVelocityRoundTrip(t *testing.T) {
	f := func(gs, psi, vs float64) bool {
		gs = math.Abs(math.Mod(gs, 1000))
		psi = WrapAngle(psi)
		vs = math.Mod(vs, 100)
		if math.IsNaN(gs) || math.IsNaN(psi) || math.IsNaN(vs) {
			return true
		}
		v := Velocity{Gs: gs, Psi: psi, Vs: vs}.Vec()
		if !almostEqual(v.HorizontalNorm(), gs, 1e-6) || !almostEqual(v.Z, vs, 1e-6) {
			return false
		}
		// Bearing is only meaningful with non-zero ground speed.
		return gs <= 1e-6 || math.Abs(WrapSigned(math.Atan2(v.Y, v.X)-psi)) <= 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrapAngle(t *testing.T) {
	tests := []struct {
		in, want float64
	}{
		{0, 0},
		{2 * math.Pi, 0},
		{-math.Pi / 2, 3 * math.Pi / 2},
		{5 * math.Pi, math.Pi},
	}
	for _, tt := range tests {
		if got := WrapAngle(tt.in); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("WrapAngle(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestWrapSigned(t *testing.T) {
	tests := []struct {
		in, want float64
	}{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi / 2, -math.Pi / 2},
		{-3 * math.Pi / 2, math.Pi / 2},
	}
	for _, tt := range tests {
		if got := WrapSigned(tt.in); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("WrapSigned(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 3); got != 3 {
		t.Errorf("Clamp high = %v", got)
	}
	if got := Clamp(-5, 0, 3); got != 0 {
		t.Errorf("Clamp low = %v", got)
	}
	if got := Clamp(2, 0, 3); got != 2 {
		t.Errorf("Clamp mid = %v", got)
	}
}

func TestUnitConversions(t *testing.T) {
	if !almostEqual(Feet(1000), 304.8, 1e-9) {
		t.Error("Feet(1000) wrong")
	}
	if !almostEqual(FPM(1500), 7.62, 1e-9) {
		t.Error("FPM(1500) wrong")
	}
	if !almostEqual(NMACHorizontal, 152.4, 1e-9) {
		t.Error("NMACHorizontal wrong")
	}
	if !almostEqual(NMACVertical, 30.48, 1e-9) {
		t.Error("NMACVertical wrong")
	}
}
