package ga

import (
	"math"
	"testing"

	"acasxval/internal/stats"
)

func TestNormalizedDiversityCollapsed(t *testing.T) {
	b := testBounds(t, 4)
	g := []float64{1, 2, 3, 4}
	pop := Population{
		{Genome: append([]float64(nil), g...)},
		{Genome: append([]float64(nil), g...)},
		{Genome: append([]float64(nil), g...)},
	}
	if d := NormalizedDiversity(pop, b); d != 0 {
		t.Errorf("collapsed population diversity = %v, want 0", d)
	}
}

func TestNormalizedDiversityMaximal(t *testing.T) {
	b := testBounds(t, 3) // [-10, 10]^3
	pop := Population{
		{Genome: []float64{-10, -10, -10}},
		{Genome: []float64{10, 10, 10}},
	}
	// Two opposite corners: distance is exactly the normalization factor.
	if d := NormalizedDiversity(pop, b); math.Abs(d-1) > 1e-12 {
		t.Errorf("corner-pair diversity = %v, want 1", d)
	}
}

func TestNormalizedDiversityRandomInRange(t *testing.T) {
	b := testBounds(t, 9)
	rng := stats.NewRNG(1)
	pop := make(Population, 50)
	for i := range pop {
		pop[i] = Individual{Genome: b.Random(rng)}
	}
	d := NormalizedDiversity(pop, b)
	if d <= 0 || d >= 1 {
		t.Errorf("random population diversity = %v, want in (0, 1)", d)
	}
	// Uniform random points in a unit cube have mean pairwise distance
	// ~0.41*sqrt(d)/sqrt(d) after normalization — roughly 0.3-0.5.
	if d < 0.2 || d > 0.6 {
		t.Errorf("random population diversity = %v, expected ~0.4", d)
	}
}

func TestNormalizedDiversityDegenerate(t *testing.T) {
	b := testBounds(t, 2)
	if d := NormalizedDiversity(nil, b); d != 0 {
		t.Error("nil population diversity non-zero")
	}
	if d := NormalizedDiversity(Population{{Genome: []float64{0, 0}}}, b); d != 0 {
		t.Error("singleton population diversity non-zero")
	}
	// Mismatched genome lengths are skipped, not crashed on.
	mixed := Population{
		{Genome: []float64{0, 0}},
		{Genome: []float64{1}},
		{Genome: []float64{1, 1}},
	}
	if d := NormalizedDiversity(mixed, b); d <= 0 {
		t.Error("mixed population should still measure the valid pair")
	}
}

func TestDiversityShrinksUnderSelection(t *testing.T) {
	// A converging GA run must lose diversity between the first and last
	// generation.
	b := testBounds(t, 5)
	p := DefaultParams()
	p.PopulationSize = 40
	p.MutationSigmaFrac = 0.02
	p.Generations = 1
	_, initial := run(sphere(make([]float64, 5)), b, p, 9)
	p.Generations = 25
	_, final := run(sphere(make([]float64, 5)), b, p, 9)
	first := NormalizedDiversity(initial, b)
	last := NormalizedDiversity(final, b)
	if last >= first {
		t.Errorf("final population diversity %v >= initial %v", last, first)
	}
}

func TestStagnation(t *testing.T) {
	mk := func(maxes ...float64) []GenerationStats {
		out := make([]GenerationStats, len(maxes))
		for i, m := range maxes {
			out[i] = GenerationStats{Generation: i, Max: m}
		}
		return out
	}
	if got := Stagnation(nil, 0); got != 0 {
		t.Errorf("empty stagnation = %d", got)
	}
	if got := Stagnation(mk(1, 2, 3, 4), 0); got != 0 {
		t.Errorf("improving run stagnation = %d, want 0", got)
	}
	if got := Stagnation(mk(1, 5, 5, 5), 0); got != 2 {
		t.Errorf("plateau stagnation = %d, want 2", got)
	}
	// Tolerance: tiny improvements below tol count as stagnation.
	if got := Stagnation(mk(1, 5, 5.0001, 5.0002), 0.01); got != 2 {
		t.Errorf("tolerant stagnation = %d, want 2", got)
	}
}
