package search

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"acasxval/internal/encounter"
	"acasxval/internal/ga"
	"acasxval/internal/montecarlo"
	"acasxval/internal/stats"
)

// randomSalt decorrelates the random baseline's draws and evaluation seeds
// from the GA's island streams under the same Spec.Seed.
const randomSalt = 0x5A4D0B45E11E

// RandomResult is the outcome of the uniform random baseline.
type RandomResult struct {
	// Best is the fittest sampled encounter (Island and Generation 0).
	Best Best
	// Evaluations logs every draw in order: Generation 0, Index the draw
	// number, the raw genome and its fitness.
	Evaluations []ga.Evaluation
	// Elapsed is the wall-clock time of the n evaluations.
	Elapsed time.Duration
}

// RandomSearch evaluates n genomes drawn uniformly from the spec's full
// genome bounds (K intruder blocks, plus the fault-gene tail when the spec
// co-evolves faults), scoring each through the GA's fitness path — the
// baseline the GA is compared against ("the proposed approach can find
// some cases that a random-search-based approach took a long time to
// find", section V). Draws and evaluation seeds derive from Spec.Seed on a
// salted stream, so the result is deterministic.
func RandomSearch(ctx context.Context, spec Spec, factory montecarlo.SystemFactory, n int) (*RandomResult, error) {
	if n < 1 {
		return nil, fmt.Errorf("search: random search needs n >= 1, got %d", n)
	}
	// No islands run here, so every evaluation fans over all cores.
	e, err := newEngine(spec, factory, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	seed := spec.Seed ^ randomSalt
	rng := stats.NewRNG(seed)
	var scratch montecarlo.Scratch
	start := time.Now()
	out := &RandomResult{Evaluations: make([]ga.Evaluation, 0, n)}
	for i := 0; i < n; i++ {
		genome := e.bounds.Random(rng)
		s, err := e.score(ctx, genome, stats.DeriveSeed(seed, i), &scratch)
		if err != nil {
			return nil, err
		}
		out.Evaluations = append(out.Evaluations, ga.Evaluation{Index: i, Genome: genome, Fitness: s.fitness})
		if i == 0 || s.fitness > out.Best.Fitness {
			out.Best = Best{
				Params:   s.params,
				Fitness:  s.fitness,
				Geometry: encounter.ClassifyMulti(s.params),
				Fault:    s.fault,
			}
		}
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// EvaluationsToReach returns the 1-based count of the first evaluation
// whose fitness reaches the threshold, or -1 if none does. Used to compare
// GA and random search efficiency over fresh evaluation logs.
func EvaluationsToReach(evals []ga.Evaluation, threshold float64) int {
	for i, e := range evals {
		if e.Fitness >= threshold {
			return i + 1
		}
	}
	return -1
}

// ComparisonResult aggregates a multi-seed GA-versus-random-search
// comparison at an equal simulated budget — the quantitative form of the
// paper's section V claim that the GA "can find some cases that a
// random-search-based approach took a long time to find".
type ComparisonResult struct {
	// Seeds is the number of independent repetitions.
	Seeds int
	// Budget is the encounter evaluations each arm simulates per seed: the
	// GA's fresh evaluations (Result.NumEvaluations), which the random arm
	// matches exactly.
	Budget int
	// Threshold is the fitness defining a "found case".
	Threshold float64
	// GAFirst / RandomFirst are the per-seed evaluation counts to the
	// first case (seeds that never reach it are excluded).
	GAFirst, RandomFirst []float64
	// GAHits / RandomHits are the per-seed counts of fresh evaluations at
	// or above the threshold. A GA elite carried into a later generation
	// is not simulated again, so it counts once.
	GAHits, RandomHits []float64
	// GABest / RandomBest are the per-seed best fitness values.
	GABest, RandomBest []float64
}

// MedianFirst returns the median evaluations-to-first-case of each arm
// (-1 when an arm never reached the threshold on any seed).
func (c ComparisonResult) MedianFirst() (gaFirst, rndFirst float64) {
	gaFirst, rndFirst = -1, -1
	if len(c.GAFirst) > 0 {
		gaFirst = stats.Median(c.GAFirst)
	}
	if len(c.RandomFirst) > 0 {
		rndFirst = stats.Median(c.RandomFirst)
	}
	return gaFirst, rndFirst
}

// MedianHits returns the median number of found cases per budget for each
// arm.
func (c ComparisonResult) MedianHits() (gaHits, rndHits float64) {
	return stats.Median(c.GAHits), stats.Median(c.RandomHits)
}

// ConcentrationGain is the ratio of GA to random median hits: how many
// times more challenging encounters the GA surfaces per simulation budget.
// Returns +Inf when random finds none but the GA does, 1 when both find
// none.
func (c ComparisonResult) ConcentrationGain() float64 {
	gaHits, rndHits := c.MedianHits()
	if rndHits == 0 {
		if gaHits == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return gaHits / rndHits
}

// CompareSearch runs the GA and the uniform random baseline over `seeds`
// independent repetitions and aggregates the comparison. spec.Seed seeds
// the first repetition; later repetitions increment it. Each repetition
// gives the random arm exactly the GA's fresh evaluation count, and both
// arms count hits over fresh evaluations only.
func CompareSearch(ctx context.Context, spec Spec, factory montecarlo.SystemFactory, seeds int, threshold float64) (*ComparisonResult, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("search: seeds %d < 1", seeds)
	}
	out := &ComparisonResult{Seeds: seeds, Threshold: threshold}
	countAbove := func(evals []ga.Evaluation) float64 {
		n := 0
		for _, e := range evals {
			if e.Fitness >= threshold {
				n++
			}
		}
		return float64(n)
	}
	for s := 0; s < seeds; s++ {
		run := spec
		run.Seed = spec.Seed + uint64(s)
		var log []ga.Evaluation
		res, err := RunContext(ctx, run, factory, Options{Observer: func(is IslandStats) {
			log = append(log, is.Evaluations...)
		}})
		if err != nil {
			return nil, err
		}
		rnd, err := RandomSearch(ctx, run, factory, res.NumEvaluations)
		if err != nil {
			return nil, err
		}
		out.Budget = res.NumEvaluations
		if at := EvaluationsToReach(log, threshold); at > 0 {
			out.GAFirst = append(out.GAFirst, float64(at))
		}
		if at := EvaluationsToReach(rnd.Evaluations, threshold); at > 0 {
			out.RandomFirst = append(out.RandomFirst, float64(at))
		}
		out.GAHits = append(out.GAHits, countAbove(log))
		out.RandomHits = append(out.RandomHits, countAbove(rnd.Evaluations))
		out.GABest = append(out.GABest, res.Best.Fitness)
		out.RandomBest = append(out.RandomBest, rnd.Best.Fitness)
	}
	return out, nil
}
