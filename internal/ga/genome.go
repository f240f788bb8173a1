// Package ga is a real-vector genetic algorithm framework filling the role
// ECJ plays in the paper's tool chain: population-based evolutionary search
// with configurable selection, crossover, mutation and elitism, driven by a
// parameter file. The generational loop that evaluates and breeds
// populations with these operators is internal/search.
//
// "GAs are population-based evolutionary search methods ... the initial
// population is set up with n individuals ... each individual of the
// population is evaluated by simulations ... the selection process will
// (re-)sample n individuals from the population, and the selected
// individuals' genome will be crossed-over and mutated." (paper section
// VI.B)
package ga

import (
	"fmt"
	"math/rand/v2"
)

// Bounds are the per-gene closed intervals of the search space.
type Bounds struct {
	Lo, Hi []float64
}

// NewBounds validates and constructs bounds.
func NewBounds(lo, hi []float64) (Bounds, error) {
	if len(lo) == 0 || len(lo) != len(hi) {
		return Bounds{}, fmt.Errorf("ga: bounds lengths %d/%d invalid", len(lo), len(hi))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return Bounds{}, fmt.Errorf("ga: gene %d bounds [%v, %v] empty", i, lo[i], hi[i])
		}
	}
	return Bounds{Lo: append([]float64(nil), lo...), Hi: append([]float64(nil), hi...)}, nil
}

// Len returns the genome length.
func (b Bounds) Len() int { return len(b.Lo) }

// Clamp limits every gene of g into the bounds, in place.
func (b Bounds) Clamp(g []float64) {
	for i := range g {
		if g[i] < b.Lo[i] {
			g[i] = b.Lo[i]
		}
		if g[i] > b.Hi[i] {
			g[i] = b.Hi[i]
		}
	}
}

// Contains reports whether every gene of g is inside the bounds.
func (b Bounds) Contains(g []float64) bool {
	if len(g) != b.Len() {
		return false
	}
	for i := range g {
		if g[i] < b.Lo[i] || g[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// Random samples a uniform genome inside the bounds.
func (b Bounds) Random(rng *rand.Rand) []float64 {
	g := make([]float64, b.Len())
	for i := range g {
		w := b.Hi[i] - b.Lo[i]
		if w <= 0 {
			g[i] = b.Lo[i]
			continue
		}
		g[i] = b.Lo[i] + rng.Float64()*w
	}
	return g
}

// Individual is one member of the population.
type Individual struct {
	// Genome is the real-vector chromosome.
	Genome []float64
	// Fitness is the evaluated fitness (higher is fitter).
	Fitness float64
	// Evaluated reports whether Fitness is meaningful.
	Evaluated bool
}

// Clone deep-copies the individual.
func (ind Individual) Clone() Individual {
	out := ind
	out.Genome = append([]float64(nil), ind.Genome...)
	return out
}

// Population is an ordered set of individuals.
type Population []Individual

// Best returns the index of the fittest evaluated individual, or -1 for an
// empty/unevaluated population.
func (p Population) Best() int {
	best := -1
	for i := range p {
		if !p[i].Evaluated {
			continue
		}
		if best == -1 || p[i].Fitness > p[best].Fitness {
			best = i
		}
	}
	return best
}
