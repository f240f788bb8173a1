package ga

import (
	"math"
	"testing"

	"acasxval/internal/stats"
)

func TestDistanceScaleIdentical(t *testing.T) {
	s := NewDistanceScale(testBounds(t, 4))
	g := []float64{1, 2, 3, 4}
	if d := s.Distance(g, append([]float64(nil), g...)); d != 0 {
		t.Errorf("identical genomes: distance %v, want 0", d)
	}
}

func TestDistanceScaleOppositeCorners(t *testing.T) {
	s := NewDistanceScale(testBounds(t, 3)) // [-10, 10]^3
	// Two opposite corners: distance is exactly the normalization factor.
	if d := s.Distance([]float64{-10, -10, -10}, []float64{10, 10, 10}); math.Abs(d-1) > 1e-12 {
		t.Errorf("opposite corners: distance %v, want 1", d)
	}
}

func TestDistanceScaleRandomInRange(t *testing.T) {
	b := testBounds(t, 9)
	s := NewDistanceScale(b)
	rng := stats.NewRNG(1)
	for i := 0; i < 100; i++ {
		x, y := b.Random(rng), b.Random(rng)
		d := s.Distance(x, y)
		if d <= 0 || d >= 1 || d != s.Distance(y, x) {
			t.Fatalf("random pair %v %v: distance %v not symmetric in (0, 1)", x, y, d)
		}
	}
}

func TestDistanceScaleDegenerate(t *testing.T) {
	s := NewDistanceScale(testBounds(t, 3))
	// Mismatched genome lengths are maximally distant, not crashed on.
	if d := s.Distance([]float64{0, 0}, []float64{1, 2, 3}); d != 1 {
		t.Errorf("short genome: distance %v, want 1", d)
	}
	if d := NewDistanceScale(Bounds{}).Distance(nil, nil); d != 1 {
		t.Errorf("empty bounds: distance %v, want 1", d)
	}
	// A zero-width gene contributes nothing, whatever its values.
	flat, err := NewBounds([]float64{0, 5}, []float64{10, 5})
	if err != nil {
		t.Fatal(err)
	}
	if d, want := NewDistanceScale(flat).Distance([]float64{0, 0}, []float64{10, 100}), 1/math.Sqrt(2); math.Abs(d-want) > 1e-12 {
		t.Errorf("zero-width gene: distance %v, want %v", d, want)
	}
}
