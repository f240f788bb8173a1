package stats

import (
	"math"
	"testing"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d, want 8", a.N())
	}
	if got := a.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Population variance of this classic dataset is 4; sample variance is
	// 32/7.
	if got := a.Variance(); math.Abs(got-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", a.Min(), a.Max())
	}
	if got := a.Sum(); math.Abs(got-40) > 1e-9 {
		t.Errorf("Sum = %v, want 40", got)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdDev() != 0 {
		t.Error("empty accumulator should report zeros")
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(42)
	if a.Variance() != 0 {
		t.Error("single observation must have zero variance")
	}
	if a.Min() != 42 || a.Max() != 42 {
		t.Error("min/max of single observation wrong")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		p, want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median = %v, want 2", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestNormQuantile(t *testing.T) {
	tests := []struct {
		p, want, tol float64
	}{
		{0.5, 0, 1e-9},
		{0.975, 1.959964, 1e-5},
		{0.995, 2.575829, 1e-5},
		{0.025, -1.959964, 1e-5},
		{0.0001, -3.719016, 1e-4},
	}
	for _, tt := range tests {
		if got := normQuantile(tt.p); math.Abs(got-tt.want) > tt.tol {
			t.Errorf("normQuantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if !math.IsInf(normQuantile(0), -1) || !math.IsInf(normQuantile(1), 1) {
		t.Error("normQuantile boundary behaviour wrong")
	}
}

func TestWilsonCI(t *testing.T) {
	// Known value: 10 successes out of 100 at 95% gives roughly
	// [0.0552, 0.1744].
	iv := WilsonCI(10, 100, 0.95)
	if math.Abs(iv.Lo-0.0552) > 0.002 || math.Abs(iv.Hi-0.1744) > 0.002 {
		t.Errorf("WilsonCI(10,100) = [%v, %v]", iv.Lo, iv.Hi)
	}
	// Zero successes must still give a positive upper bound.
	iv0 := WilsonCI(0, 100, 0.95)
	if iv0.Lo != 0 {
		t.Errorf("lower bound for 0 successes = %v, want 0", iv0.Lo)
	}
	if iv0.Hi <= 0 || iv0.Hi > 0.1 {
		t.Errorf("upper bound for 0/100 = %v, want small positive", iv0.Hi)
	}
	// Degenerate trials.
	ivx := WilsonCI(0, 0, 0.95)
	if ivx.Lo != 0 || ivx.Hi != 1 {
		t.Errorf("WilsonCI(0,0) = %+v, want [0,1]", ivx)
	}
}

func TestWilsonCIContainsTruth(t *testing.T) {
	// Coverage sanity: simulate Bernoulli(0.3) experiments and check the
	// 95% interval contains 0.3 almost always.
	rng := NewRNG(7)
	misses := 0
	const experiments = 300
	for i := 0; i < experiments; i++ {
		successes := 0
		const trials = 200
		for j := 0; j < trials; j++ {
			if rng.Float64() < 0.3 {
				successes++
			}
		}
		if !WilsonCI(successes, trials, 0.95).Contains(0.3) {
			misses++
		}
	}
	if misses > experiments/10 {
		t.Errorf("Wilson interval missed truth %d/%d times", misses, experiments)
	}
}

func TestDeriveSeedDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(42, i)
		if seen[s] {
			t.Fatalf("duplicate derived seed at index %d", i)
		}
		seen[s] = true
	}
	// Different parents must give different children.
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Error("different parents produced identical child seeds")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(99)
	b := NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewChildRNG(99, 1)
	d := NewChildRNG(99, 2)
	same := true
	for i := 0; i < 10; i++ {
		if c.Float64() != d.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Error("different child indices produced identical streams")
	}
}
