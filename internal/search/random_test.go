package search

import (
	"context"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"acasxval/internal/ga"
	"acasxval/internal/montecarlo"
	"acasxval/internal/sim"
)

func TestRandomSearch(t *testing.T) {
	spec := onePopSpec()
	spec.Seed = 7
	ctx := context.Background()
	res, err := RandomSearch(ctx, spec, montecarlo.Unequipped, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evaluations) != 12 {
		t.Errorf("evaluations = %d, want 12", len(res.Evaluations))
	}
	if res.Best.Fitness <= 0 {
		t.Errorf("best fitness = %v", res.Best.Fitness)
	}
	if _, err := RandomSearch(ctx, spec, montecarlo.Unequipped, 0); err == nil {
		t.Error("n=0 accepted")
	}
	again, err := RandomSearch(ctx, spec, montecarlo.Unequipped, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Evaluations, res.Evaluations) || !reflect.DeepEqual(again.Best, res.Best) {
		t.Error("random search is not deterministic under its seed")
	}

	// The baseline samples the spec's whole genome, so it runs K-intruder
	// and fault-co-evolving searches too.
	spec.Intruders = 2
	spec.EvolveFaults = true
	full, err := RandomSearch(ctx, spec, testFactory, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g := len(full.Evaluations[0].Genome); g != spec.GenomeLen() || full.Best.Params.NumIntruders() != 2 {
		t.Errorf("K=2 fault-evolving draw has %d genes and a %d-intruder best, want %d and 2",
			g, full.Best.Params.NumIntruders(), spec.GenomeLen())
	}
}

func TestEvaluationsToReach(t *testing.T) {
	evals := []ga.Evaluation{
		{Fitness: 10}, {Fitness: 50}, {Fitness: 200}, {Fitness: 100},
	}
	if got := EvaluationsToReach(evals, 100); got != 3 {
		t.Errorf("EvaluationsToReach = %d, want 3", got)
	}
	if got := EvaluationsToReach(evals, 1e9); got != -1 {
		t.Errorf("unreachable threshold = %d, want -1", got)
	}
	if got := EvaluationsToReach(nil, 0); got != -1 {
		t.Errorf("empty log = %d, want -1", got)
	}
}

func TestCompareSearchValidation(t *testing.T) {
	if _, err := CompareSearch(context.Background(), onePopSpec(), montecarlo.Unequipped, 0, 9000); err == nil {
		t.Error("zero seeds accepted")
	}
}

func TestCompareSearchAgainstUnequipped(t *testing.T) {
	spec := onePopSpec()
	spec.GA.PopulationSize = 8
	spec.Seed = 5
	res, err := CompareSearch(context.Background(), spec, montecarlo.Unequipped, 2, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds != 2 || res.Budget != freshEvaluations(spec) {
		t.Errorf("seeds/budget = %d/%d, want 2/%d", res.Seeds, res.Budget, freshEvaluations(spec))
	}
	if len(res.GAHits) != 2 || len(res.RandomHits) != 2 {
		t.Fatalf("hit records missing: %v / %v", res.GAHits, res.RandomHits)
	}
	// Against unequipped aircraft collisions abound: both arms find cases.
	gaFirst, rndFirst := res.MedianFirst()
	if gaFirst <= 0 || rndFirst <= 0 {
		t.Errorf("first-case medians = %v/%v, want positive", gaFirst, rndFirst)
	}
	gaHits, rndHits := res.MedianHits()
	if gaHits <= 0 || rndHits <= 0 {
		t.Errorf("hit medians = %v/%v, want positive", gaHits, rndHits)
	}
	if g := res.ConcentrationGain(); g <= 0 || math.IsNaN(g) {
		t.Errorf("concentration gain = %v", g)
	}
	for _, b := range res.GABest {
		if b < 9000 {
			t.Errorf("GA best %v below threshold against unequipped", b)
		}
	}
}

// countingSystem is an unequipped aircraft that counts the episodes it
// flies: the runner resets every system once per episode.
type countingSystem struct {
	sim.NoSystem
	episodes *atomic.Int64
}

func (c countingSystem) Reset() { c.episodes.Add(1) }

// TestCompareSearchEqualBudget is the section V comparison's fairness
// gate. Both arms must simulate the same number of encounters — the GA's
// fresh evaluations — and a GA elite carried into a later generation
// without a new simulation must not count as another found case. Against
// unequipped aircraft the first generation's elites already clear the
// threshold, so counting carry-overs would inflate the GA arm.
func TestCompareSearchEqualBudget(t *testing.T) {
	spec := onePopSpec()
	spec.GA.PopulationSize = 8
	spec.Seed = 5
	const threshold = 9000
	var episodes atomic.Int64
	factory := func() (sim.System, sim.System) {
		return countingSystem{episodes: &episodes}, sim.NoSystem{}
	}
	res, err := CompareSearch(context.Background(), spec, factory, 1, threshold)
	if err != nil {
		t.Fatal(err)
	}
	fresh := freshEvaluations(spec)
	if res.Budget != fresh {
		t.Errorf("budget %d, want the GA's %d fresh evaluations", res.Budget, fresh)
	}
	if got, want := episodes.Load(), int64(2*fresh*spec.Fitness.SimsPerEncounter); got != want {
		t.Errorf("the two arms simulated %d episodes, want %d (%d encounters each x %d sims)",
			got, want, fresh, spec.Fitness.SimsPerEncounter)
	}

	ga0, log := runLogged(t, spec, factory, Options{})
	if ga0.Islands[0][0].Max < threshold {
		t.Fatalf("generation-0 best %v below %v: no elite above the threshold is carried over", ga0.Islands[0][0].Max, threshold)
	}
	freshHits := 0
	for _, e := range log {
		if e.Fitness >= threshold {
			freshHits++
		}
	}
	if res.GAHits[0] != float64(freshHits) {
		t.Errorf("GA hits %v, want %d: carried-over elites were counted again", res.GAHits[0], freshHits)
	}
}

func TestComparisonResultEdgeCases(t *testing.T) {
	empty := ComparisonResult{}
	gaFirst, rndFirst := empty.MedianFirst()
	if gaFirst != -1 || rndFirst != -1 {
		t.Errorf("empty medians = %v/%v, want -1/-1", gaFirst, rndFirst)
	}
	if g := empty.ConcentrationGain(); g != 1 {
		t.Errorf("empty gain = %v, want 1", g)
	}
	gaOnly := ComparisonResult{GAHits: []float64{5}, RandomHits: []float64{0}}
	if g := gaOnly.ConcentrationGain(); !math.IsInf(g, 1) {
		t.Errorf("gain with zero random hits = %v, want +Inf", g)
	}
	both := ComparisonResult{GAHits: []float64{30}, RandomHits: []float64{10}}
	if g := both.ConcentrationGain(); g != 3 {
		t.Errorf("gain = %v, want 3", g)
	}
}
