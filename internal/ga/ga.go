package ga

import (
	"fmt"
	"math/rand/v2"

	"acasxval/internal/config"
	"acasxval/internal/stats"
)

// Params configures the evolutionary operators (the knobs ECJ exposes
// through its parameter files).
type Params struct {
	// PopulationSize is the number of individuals per generation
	// (paper: 200).
	PopulationSize int
	// Generations is the number of generations evolved (paper: 5).
	Generations int
	// Selection picks the parent-selection operator.
	Selection SelectionOp
	// TournamentSize is the tournament size for Tournament selection.
	TournamentSize int
	// Crossover picks the recombination operator.
	Crossover CrossoverOp
	// CrossoverProb is the probability a selected pair is recombined.
	CrossoverProb float64
	// MutationProb is the per-gene mutation probability.
	MutationProb float64
	// MutationSigmaFrac is the Gaussian mutation sigma as a fraction of
	// each gene's range.
	MutationSigmaFrac float64
	// Elites is the number of best individuals copied unchanged into the
	// next generation.
	Elites int
}

// DefaultParams returns the paper's search settings: population 200
// evolved for 5 generations.
func DefaultParams() Params {
	return Params{
		PopulationSize:    200,
		Generations:       5,
		Selection:         Tournament,
		TournamentSize:    2,
		Crossover:         OnePoint,
		CrossoverProb:     0.9,
		MutationProb:      0.15,
		MutationSigmaFrac: 0.1,
		Elites:            2,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.PopulationSize < 2 {
		return fmt.Errorf("ga: population size %d < 2", p.PopulationSize)
	}
	if p.Generations < 1 {
		return fmt.Errorf("ga: generations %d < 1", p.Generations)
	}
	if p.CrossoverProb < 0 || p.CrossoverProb > 1 {
		return fmt.Errorf("ga: crossover probability %v outside [0, 1]", p.CrossoverProb)
	}
	if p.MutationProb < 0 || p.MutationProb > 1 {
		return fmt.Errorf("ga: mutation probability %v outside [0, 1]", p.MutationProb)
	}
	if p.MutationSigmaFrac < 0 {
		return fmt.Errorf("ga: negative mutation sigma %v", p.MutationSigmaFrac)
	}
	if p.Elites < 0 || p.Elites >= p.PopulationSize {
		return fmt.Errorf("ga: elites %d outside [0, population)", p.Elites)
	}
	if p.TournamentSize < 1 && p.Selection == Tournament {
		return fmt.Errorf("ga: tournament size %d < 1", p.TournamentSize)
	}
	return nil
}

// FromConfig reads Params from an ECJ-style parameter set. Recognized keys
// (all optional, defaults from DefaultParams): pop.size, generations,
// select, select.tournament.size, crossover, crossover.prob, mutation.prob,
// mutation.sigma, elites.
func FromConfig(c *config.Params) (Params, error) {
	p := DefaultParams()
	var err error
	if p.PopulationSize, err = c.IntOr("pop.size", p.PopulationSize); err != nil {
		return p, err
	}
	if p.Generations, err = c.IntOr("generations", p.Generations); err != nil {
		return p, err
	}
	if name := c.StringOr("select", ""); name != "" {
		if p.Selection, err = ParseSelectionOp(name); err != nil {
			return p, err
		}
	}
	if p.TournamentSize, err = c.IntOr("select.tournament.size", p.TournamentSize); err != nil {
		return p, err
	}
	if name := c.StringOr("crossover", ""); name != "" {
		if p.Crossover, err = ParseCrossoverOp(name); err != nil {
			return p, err
		}
	}
	if p.CrossoverProb, err = c.FloatOr("crossover.prob", p.CrossoverProb); err != nil {
		return p, err
	}
	if p.MutationProb, err = c.FloatOr("mutation.prob", p.MutationProb); err != nil {
		return p, err
	}
	if p.MutationSigmaFrac, err = c.FloatOr("mutation.sigma", p.MutationSigmaFrac); err != nil {
		return p, err
	}
	if p.Elites, err = c.IntOr("elites", p.Elites); err != nil {
		return p, err
	}
	return p, p.Validate()
}

// Evaluation is one recorded fitness evaluation (a point in Fig. 6).
type Evaluation struct {
	Generation int
	Index      int
	Genome     []float64
	Fitness    float64
}

// GenerationStats summarizes one generation.
type GenerationStats struct {
	Generation int
	Min        float64
	Mean       float64
	Max        float64
	// Best is a copy of the generation's fittest individual.
	Best Individual
}

// Summarize computes the per-generation statistics of an evaluated
// population.
func Summarize(pop Population, gen int) GenerationStats {
	gs := GenerationStats{Generation: gen}
	var acc stats.Accumulator
	best := pop.Best()
	for i := range pop {
		acc.Add(pop[i].Fitness)
	}
	gs.Min = acc.Min()
	gs.Mean = acc.Mean()
	gs.Max = acc.Max()
	if best >= 0 {
		gs.Best = pop[best].Clone()
	}
	return gs
}

// Breed produces the successor population from an evaluated one using the
// configured operators: elites survive unchanged (keeping their fitness),
// the rest come from selection + crossover + mutation and are marked
// unevaluated. The input population is not modified.
func Breed(pop Population, bounds Bounds, p Params, rng *rand.Rand) Population {
	next := make(Population, 0, len(pop))

	// Elitism: copy the top-k individuals.
	if p.Elites > 0 {
		elite := eliteIndices(pop, p.Elites)
		for _, idx := range elite {
			keep := pop[idx].Clone()
			// Elites keep their evaluated fitness: re-evaluating them
			// wastes the budget the paper spends on 100-sim averages.
			next = append(next, keep)
		}
	}

	for len(next) < len(pop) {
		i := selectParent(pop, p.Selection, p.TournamentSize, rng)
		j := selectParent(pop, p.Selection, p.TournamentSize, rng)
		a := pop[i].Clone()
		b := pop[j].Clone()
		if rng.Float64() < p.CrossoverProb {
			crossover(a.Genome, b.Genome, p.Crossover, rng)
		}
		mutate(a.Genome, bounds, p.MutationProb, p.MutationSigmaFrac, rng)
		mutate(b.Genome, bounds, p.MutationProb, p.MutationSigmaFrac, rng)
		a.Evaluated = false
		b.Evaluated = false
		next = append(next, a)
		if len(next) < len(pop) {
			next = append(next, b)
		}
	}
	return next
}

// eliteIndices returns the indices of the k fittest individuals.
func eliteIndices(pop Population, k int) []int {
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	// Partial selection sort: k is tiny.
	for i := 0; i < k && i < len(idx); i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if pop[idx[j]].Fitness > pop[idx[best]].Fitness {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}
