package search

// The paper's serial GA is the one-island run of the engine: these tests
// pin the fitness path, the Fig. 6 evaluation log and the search pipeline
// at Islands = 1.

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"acasxval/internal/acasx"
	"acasxval/internal/core"
	"acasxval/internal/encounter"
	"acasxval/internal/ga"
	"acasxval/internal/montecarlo"
	"acasxval/internal/sim"
)

var (
	tableOnce sync.Once
	testTable *acasx.Table
	tableErr  error
)

// acasFactory equips both aircraft with the full-resolution ACAS XU table.
func acasFactory(tb testing.TB) montecarlo.SystemFactory {
	tb.Helper()
	tableOnce.Do(func() {
		cfg := acasx.DefaultConfig()
		cfg.Workers = 8
		testTable, tableErr = acasx.BuildTable(cfg)
	})
	if tableErr != nil {
		tb.Fatal(tableErr)
	}
	return func() (sim.System, sim.System) {
		return sim.NewACASXU(testTable), sim.NewACASXU(testTable)
	}
}

// onePopSpec is the paper's single-population GA at unit-test scale.
func onePopSpec() Spec {
	s := DefaultSpec()
	s.Name = "one-pop"
	s.Islands = 1
	s.GA.PopulationSize = 10
	s.GA.Generations = 3
	s.Fitness.SimsPerEncounter = 4
	s.Seed = 42
	return s
}

// freshEvaluations is the one-island evaluation budget: the whole first
// generation, then every non-elite child of each later one.
func freshEvaluations(s Spec) int {
	return s.GA.PopulationSize + (s.GA.Generations-1)*(s.GA.PopulationSize-s.GA.Elites)
}

// runLogged runs a search and assembles the Fig. 6 log from the observer.
func runLogged(t *testing.T, spec Spec, factory montecarlo.SystemFactory, opts Options) (*Result, []ga.Evaluation) {
	t.Helper()
	var log []ga.Evaluation
	opts.Observer = func(is IslandStats) { log = append(log, is.Evaluations...) }
	res, err := RunContext(context.Background(), spec, factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, log
}

// fitnessOf scores one pairwise encounter through the engine's fitness path.
func fitnessOf(t *testing.T, p encounter.Params, factory montecarlo.SystemFactory, sims int, seed uint64) (float64, *montecarlo.Estimate) {
	t.Helper()
	fit := core.DefaultFitnessConfig()
	fit.SimsPerEncounter = sims
	var scratch montecarlo.Scratch
	f, est, err := evaluateEncounter(context.Background(), encounter.MultiOf(p), seed, fit, factory, 1, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	return f, est
}

// TestUnequippedHeadOnFitnessNearMax: without avoidance the head-on preset
// collides in (almost) every run, so the fitness approaches the collision
// gain.
func TestUnequippedHeadOnFitnessNearMax(t *testing.T) {
	f, est := fitnessOf(t, encounter.PresetHeadOn(), montecarlo.Unequipped, 8, 1)
	if est.NMACs < est.Samples-1 {
		t.Errorf("unequipped head-on NMACs: %d/%d", est.NMACs, est.Samples)
	}
	if f < 9000 {
		t.Errorf("fitness = %v, want ~10000", f)
	}
	if est.AlertRate != 0 {
		t.Errorf("unequipped aircraft alerted (rate %v)", est.AlertRate)
	}
}

// TestEquippedFitnessMuchLower: the working system drives the fitness far
// down on the same encounter — the signal the GA climbs against.
func TestEquippedFitnessMuchLower(t *testing.T) {
	f, est := fitnessOf(t, encounter.PresetHeadOn(), acasFactory(t), 8, 1)
	if est.NMACs != 0 {
		t.Errorf("equipped head-on NMACs: %d/%d", est.NMACs, est.Samples)
	}
	if f > 500 {
		t.Errorf("equipped fitness = %v, want small", f)
	}
	if est.AlertRate == 0 {
		t.Error("equipped system never alerted")
	}
}

// TestTailApproachBeatsHeadOnFitness reproduces the paper's core finding at
// unit-test scale: the tail-approach preset scores (much) higher fitness
// against the equipped system than the head-on preset.
func TestTailApproachBeatsHeadOnFitness(t *testing.T) {
	factory := acasFactory(t)
	headOn, headEst := fitnessOf(t, encounter.PresetHeadOn(), factory, 20, 5)
	tail, tailEst := fitnessOf(t, encounter.PresetTailApproach(), factory, 20, 5)
	if tail <= headOn {
		t.Errorf("tail fitness %v <= head-on fitness %v", tail, headOn)
	}
	if tailEst.PNMAC <= headEst.PNMAC {
		t.Errorf("tail NMAC rate %v <= head-on %v", tailEst.PNMAC, headEst.PNMAC)
	}
}

func TestEvaluateDeterministicPerSeed(t *testing.T) {
	a, _ := fitnessOf(t, encounter.PresetCrossing(), testFactory, 8, 77)
	b, _ := fitnessOf(t, encounter.PresetCrossing(), testFactory, 8, 77)
	if a != b {
		t.Errorf("same seed, different fitness: %v vs %v", a, b)
	}
}

// TestSearchPipeline runs a miniature one-island search against the
// unequipped baseline (cheap and guaranteed to find collisions) and checks
// the structure of the result and of the reports built from its log.
func TestSearchPipeline(t *testing.T) {
	spec := onePopSpec()
	var gens []int
	var log []ga.Evaluation
	res, err := RunContext(context.Background(), spec, montecarlo.Unequipped, Options{Observer: func(is IslandStats) {
		gens = append(gens, is.Stats.Generation)
		log = append(log, is.Evaluations...)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if want := freshEvaluations(spec); res.NumEvaluations != want || len(log) != want {
		t.Errorf("evaluations = %d (log %d), want %d", res.NumEvaluations, len(log), want)
	}
	if !reflect.DeepEqual(gens, []int{0, 1, 2}) {
		t.Errorf("observer generations = %v, want one call per generation", gens)
	}
	top := core.TopEncounters(spec.Ranges, log, 5)
	if len(top) != 5 {
		t.Fatalf("top list = %d, want 5", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Fitness > top[i-1].Fitness {
			t.Fatal("top list not sorted")
		}
	}
	if res.Best.Fitness != top[0].Fitness {
		t.Errorf("best %v does not match top of list %v", res.Best.Fitness, top[0].Fitness)
	}
	// Against unequipped aircraft the search space is full of collisions:
	// the best must be near the maximum gain.
	if res.Best.Fitness < 5000 {
		t.Errorf("best fitness %v suspiciously low for unequipped search", res.Best.Fitness)
	}
}

// TestEvaluationLog: over a migrating three-island run, the log assembled
// from IslandStats.Evaluations holds exactly NumEvaluations fresh
// evaluations in generation order, and its maximum is the search's best.
func TestEvaluationLog(t *testing.T) {
	spec := testSpec()
	res, log := runLogged(t, spec, testFactory, Options{})
	if len(log) != res.NumEvaluations {
		t.Fatalf("log has %d entries, want NumEvaluations %d", len(log), res.NumEvaluations)
	}
	full := spec.Islands * spec.GA.PopulationSize * spec.GA.Generations
	if len(log) >= full {
		t.Errorf("log has %d entries, want fewer than %d: carried elites and migrants are not fresh", len(log), full)
	}
	best := log[0].Fitness
	for i, e := range log {
		if i > 0 && e.Generation < log[i-1].Generation {
			t.Fatalf("entry %d generation %d after %d", i, e.Generation, log[i-1].Generation)
		}
		if len(e.Genome) != spec.GenomeLen() {
			t.Fatalf("entry %d genome has %d genes, want %d", i, len(e.Genome), spec.GenomeLen())
		}
		best = max(best, e.Fitness)
	}
	if best != res.Best.Fitness {
		t.Errorf("log maximum %v, want Result.Best.Fitness %v", best, res.Best.Fitness)
	}
}

// TestRunDeterministicAcrossParallelism: the one-island search is identical
// for any episode-worker count, evaluation log included.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	spec := onePopSpec()
	serial, serialLog := runLogged(t, spec, testFactory, Options{EpisodeWorkers: 1})
	parallel, parallelLog := runLogged(t, spec, testFactory, Options{EpisodeWorkers: 8})
	if !reflect.DeepEqual(serial.Islands, parallel.Islands) || !reflect.DeepEqual(serial.Best, parallel.Best) {
		t.Error("episode workers changed the search trajectory")
	}
	if !reflect.DeepEqual(serialLog, parallelLog) {
		t.Error("episode workers changed the evaluation log")
	}
	if !reflect.DeepEqual(archiveJSONL(t, serial), archiveJSONL(t, parallel)) {
		t.Error("episode workers changed the archive")
	}
}

// TestFitnessClimbsAtOneIsland is the Fig. 6 property on the engine: the
// population's mean fitness rises from the first generation to the last.
func TestFitnessClimbsAtOneIsland(t *testing.T) {
	spec := onePopSpec()
	spec.GA.PopulationSize = 16
	spec.GA.Generations = 5
	res, err := RunContext(context.Background(), spec, testFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	history := res.Islands[0]
	first, last := history[0], history[len(history)-1]
	if last.Mean <= first.Mean {
		t.Errorf("mean fitness did not climb: %v -> %v", first.Mean, last.Mean)
	}
	if last.Max < first.Max {
		t.Errorf("max fitness regressed: %v -> %v", first.Max, last.Max)
	}
}

// TestObserverCallback: the observer sees every island once per
// generation, islands in order, generations ascending.
func TestObserverCallback(t *testing.T) {
	spec := testSpec()
	var calls [][2]int
	if _, err := RunContext(context.Background(), spec, testFactory, Options{Observer: func(is IslandStats) {
		calls = append(calls, [2]int{is.Stats.Generation, is.Island})
	}}); err != nil {
		t.Fatal(err)
	}
	if len(calls) != spec.GA.Generations*spec.Islands {
		t.Fatalf("observer called %d times, want %d", len(calls), spec.GA.Generations*spec.Islands)
	}
	for i, c := range calls {
		if want := [2]int{i / spec.Islands, i % spec.Islands}; c != want {
			t.Fatalf("call %d reported (generation, island) %v, want %v", i, c, want)
		}
	}
}

// TestEngineValidation: the engine refuses to build its fitness path from a
// nil system factory, inverted encounter ranges or a bad fitness config.
func TestEngineValidation(t *testing.T) {
	if _, err := RunContext(context.Background(), onePopSpec(), nil, Options{}); err == nil {
		t.Error("nil factory accepted")
	}
	badRanges := onePopSpec()
	badRanges.Ranges.TimeToCPA = encounter.Range{Min: 5, Max: 1}
	badSims := onePopSpec()
	badSims.Fitness.SimsPerEncounter = -1
	for name, spec := range map[string]Spec{"ranges": badRanges, "sims": badSims} {
		if _, err := RunContext(context.Background(), spec, testFactory, Options{}); err == nil {
			t.Errorf("invalid %s accepted", name)
		}
	}
}

// TestRunErrors: invalid GA parameters stop a run before any evaluation.
func TestRunErrors(t *testing.T) {
	badPop := onePopSpec()
	badPop.GA.PopulationSize = 0
	badGens := onePopSpec()
	badGens.GA.Generations = 0
	badElites := onePopSpec()
	badElites.GA.Elites = badElites.GA.PopulationSize
	for name, spec := range map[string]Spec{"population": badPop, "generations": badGens, "elites": badElites} {
		if _, err := RunContext(context.Background(), spec, testFactory, Options{}); err == nil {
			t.Errorf("invalid %s accepted", name)
		}
	}
}

// TestEvaluateBadGenome: a genome that does not decode — here a fault tail
// outside every valid profile — scores zero without a simulation instead
// of halting the search.
func TestEvaluateBadGenome(t *testing.T) {
	spec := onePopSpec()
	spec.EvolveFaults = true
	e, err := newEngine(spec, testFactory, 1)
	if err != nil {
		t.Fatal(err)
	}
	genome := append(encounter.PresetHeadOn().Vector(), make([]float64, spec.GenomeLen()-encounter.NumParams)...)
	for i := encounter.NumParams; i < len(genome); i++ {
		genome[i] = -1
	}
	var scratch montecarlo.Scratch
	s, err := e.score(context.Background(), genome, 1, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	if s.fitness != 0 || s.est != nil {
		t.Errorf("corrupt genome scored %v (estimate %v), want 0 without a simulation", s.fitness, s.est)
	}
}

// TestStochasticFitnessSeeds exercises the noisy-fitness path the paper
// relies on: a population of one repeated genome still scores differently
// slot by slot (each slot draws its own evaluation seed), and identically
// on a rerun.
func TestStochasticFitnessSeeds(t *testing.T) {
	spec := onePopSpec()
	spec.GA.Generations = 1
	for range spec.GA.PopulationSize {
		spec.SeedGenomes = append(spec.SeedGenomes, encounter.PresetTailApproach().Vector())
	}
	_, first := runLogged(t, spec, testFactory, Options{})
	_, again := runLogged(t, spec, testFactory, Options{})
	if !reflect.DeepEqual(first, again) {
		t.Error("slot seeds are not stable across runs")
	}
	distinct := map[float64]bool{}
	for _, e := range first {
		distinct[e.Fitness] = true
	}
	if len(distinct) < 2 {
		t.Errorf("a repeated genome scored %d distinct fitness values over %d slots, want per-slot seeds", len(distinct), len(first))
	}
}
