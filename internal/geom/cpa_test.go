package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCPAHeadOn(t *testing.T) {
	// Two aircraft 1000 m apart closing head-on at a combined 100 m/s, with
	// a 10 m vertical offset. CPA is at t=10 s with zero horizontal range.
	p1 := Vec3{0, 0, 0}
	v1 := Vec3{50, 0, 0}
	p2 := Vec3{1000, 0, 10}
	v2 := Vec3{-50, 0, 0}
	got := CPAOf(p1, v1, p2, v2)
	if !almostEqual(got.Time, 10, 1e-9) {
		t.Errorf("Time = %v, want 10", got.Time)
	}
	if !almostEqual(got.HorizontalRange, 0, 1e-9) {
		t.Errorf("HorizontalRange = %v, want 0", got.HorizontalRange)
	}
	if !almostEqual(got.VerticalRange, 10, 1e-9) {
		t.Errorf("VerticalRange = %v, want 10", got.VerticalRange)
	}
	if !almostEqual(got.Range, 10, 1e-9) {
		t.Errorf("Range = %v, want 10", got.Range)
	}
}

func TestCPADiverging(t *testing.T) {
	// Aircraft flying directly apart: CPA is now.
	p1 := Vec3{0, 0, 0}
	v1 := Vec3{-10, 0, 0}
	p2 := Vec3{100, 0, 0}
	v2 := Vec3{10, 0, 0}
	got := CPAOf(p1, v1, p2, v2)
	if got.Time != 0 {
		t.Errorf("Time = %v, want 0", got.Time)
	}
	if !almostEqual(got.Range, 100, 1e-9) {
		t.Errorf("Range = %v, want 100", got.Range)
	}
}

func TestCPAParallelSameVelocity(t *testing.T) {
	// Identical velocities: relative velocity zero, separation constant.
	p1 := Vec3{0, 0, 0}
	p2 := Vec3{3, 4, 0}
	v := Vec3{20, 5, 1}
	got := CPAOf(p1, v, p2, v)
	if got.Time != 0 {
		t.Errorf("Time = %v, want 0", got.Time)
	}
	if !almostEqual(got.Range, 5, 1e-9) {
		t.Errorf("Range = %v, want 5", got.Range)
	}
}

func TestCPACrossing(t *testing.T) {
	// Perpendicular crossing with equal speeds through the same point:
	// minimum separation occurs before the common point.
	p1 := Vec3{-100, 0, 0}
	v1 := Vec3{10, 0, 0}
	p2 := Vec3{0, -100, 0}
	v2 := Vec3{0, 10, 0}
	got := CPAOf(p1, v1, p2, v2)
	if !almostEqual(got.Time, 10, 1e-9) {
		t.Errorf("Time = %v, want 10", got.Time)
	}
	if !almostEqual(got.Range, 0, 1e-9) {
		t.Errorf("Range = %v, want 0", got.Range)
	}
}

// TestCPAIsMinimum verifies, by sampling, that no other time gives a smaller
// separation than the reported CPA time.
func TestCPAIsMinimum(t *testing.T) {
	f := func(px, py, pz, vx, vy, vz float64) bool {
		mod := func(x, m float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, m)
		}
		p2 := Vec3{mod(px, 5000), mod(py, 5000), mod(pz, 500)}
		v2 := Vec3{mod(vx, 100), mod(vy, 100), mod(vz, 20)}
		p1 := Vec3{0, 0, 0}
		v1 := Vec3{50, 0, 0}
		cpa := CPAOf(p1, v1, p2, v2)
		sepAt := func(tt float64) float64 {
			return p1.Add(v1.Scale(tt)).DistanceTo(p2.Add(v2.Scale(tt)))
		}
		for _, dt := range []float64{0.5, 1, 5, 25} {
			if tt := cpa.Time + dt; sepAt(tt) < cpa.Range-1e-6 {
				return false
			}
			if tt := cpa.Time - dt; tt >= 0 && sepAt(tt) < cpa.Range-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTauConverging(t *testing.T) {
	// Head-on at 2000 m, closing at 100 m/s, dmod 500 m: tau = 15 s.
	p1 := Vec3{0, 0, 0}
	v1 := Vec3{50, 0, 0}
	p2 := Vec3{2000, 0, 0}
	v2 := Vec3{-50, 0, 0}
	got := Tau(p1, v1, p2, v2, 500)
	if !almostEqual(got, 15, 1e-9) {
		t.Errorf("Tau = %v, want 15", got)
	}
}

func TestTauInsideDMOD(t *testing.T) {
	p1 := Vec3{0, 0, 0}
	v1 := Vec3{50, 0, 0}
	p2 := Vec3{300, 0, 0} // already inside dmod=500
	v2 := Vec3{-50, 0, 0}
	if got := Tau(p1, v1, p2, v2, 500); got != 0 {
		t.Errorf("Tau = %v, want 0", got)
	}
}

func TestTauDiverging(t *testing.T) {
	p1 := Vec3{0, 0, 0}
	v1 := Vec3{-50, 0, 0}
	p2 := Vec3{1000, 0, 0}
	v2 := Vec3{50, 0, 0}
	if got := Tau(p1, v1, p2, v2, 500); got != TauUnbounded {
		t.Errorf("Tau = %v, want unbounded", got)
	}
}

func TestTauZeroRange(t *testing.T) {
	p := Vec3{10, 20, 0}
	if got := Tau(p, Vec3{1, 0, 0}, p, Vec3{-1, 0, 0}, 500); got != 0 {
		t.Errorf("Tau at zero range = %v, want 0", got)
	}
}

func TestTauSlowClosure(t *testing.T) {
	// Tail chase: 600 m apart, closing at only 1 m/s, dmod 150 m.
	// tau = 450 s — far beyond any alerting horizon, which is exactly the
	// failure mode the paper's GA discovers.
	p1 := Vec3{0, 0, 0}
	v1 := Vec3{50, 0, 0}
	p2 := Vec3{600, 0, 0}
	v2 := Vec3{-51 + 100, 0, 0} // intruder moving +49: closure 1 m/s
	got := Tau(p1, v1, p2, v2, 150)
	if !almostEqual(got, 450, 1e-6) {
		t.Errorf("Tau = %v, want 450", got)
	}
}
