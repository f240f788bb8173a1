package ga

import (
	"math"
	"testing"

	"acasxval/internal/config"
	"acasxval/internal/stats"
)

// sphere is a classic easy maximization target: peak 0 at the center c.
func sphere(center []float64) func([]float64) float64 {
	return func(g []float64) float64 {
		s := 0.0
		for i := range g {
			d := g[i] - center[i]
			s += d * d
		}
		return -s
	}
}

// run evolves a population for p.Generations from the exported operators
// the search engine drives (Breed, Summarize) and returns the per-generation
// statistics and the final population.
func run(fitness func([]float64) float64, b Bounds, p Params, seed uint64) ([]GenerationStats, Population) {
	rng := stats.NewRNG(seed)
	pop := make(Population, p.PopulationSize)
	for i := range pop {
		pop[i] = Individual{Genome: b.Random(rng)}
	}
	var history []GenerationStats
	for gen := 0; gen < p.Generations; gen++ {
		for i := range pop {
			if !pop[i].Evaluated {
				pop[i].Fitness = fitness(pop[i].Genome)
				pop[i].Evaluated = true
			}
		}
		history = append(history, Summarize(pop, gen))
		if gen < p.Generations-1 {
			pop = Breed(pop, b, p, rng)
		}
	}
	return history, pop
}

func testBounds(t *testing.T, dims int) Bounds {
	t.Helper()
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	for i := range lo {
		lo[i] = -10
		hi[i] = 10
	}
	b, err := NewBounds(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBoundsValidation(t *testing.T) {
	if _, err := NewBounds(nil, nil); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, err := NewBounds([]float64{0}, []float64{1, 2}); err == nil {
		t.Error("mismatched bounds accepted")
	}
	if _, err := NewBounds([]float64{5}, []float64{1}); err == nil {
		t.Error("inverted bounds accepted")
	}
}

func TestBoundsOps(t *testing.T) {
	b := testBounds(t, 3)
	g := []float64{-20, 0, 20}
	b.Clamp(g)
	if g[0] != -10 || g[1] != 0 || g[2] != 10 {
		t.Errorf("clamped genome = %v", g)
	}
	if !b.Contains(g) {
		t.Error("clamped genome not contained")
	}
	if b.Contains([]float64{0, 0}) {
		t.Error("wrong-length genome contained")
	}
	rng := stats.NewRNG(1)
	for i := 0; i < 100; i++ {
		if g := b.Random(rng); !b.Contains(g) {
			t.Fatalf("random genome %v outside bounds", g)
		}
	}
}

func TestBoundsDegenerateGene(t *testing.T) {
	b, err := NewBounds([]float64{5}, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if g := b.Random(stats.NewRNG(1)); g[0] != 5 {
		t.Errorf("degenerate gene sampled %v", g[0])
	}
}

func TestParamsValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"pop", func(p *Params) { p.PopulationSize = 1 }},
		{"gens", func(p *Params) { p.Generations = 0 }},
		{"xprob", func(p *Params) { p.CrossoverProb = 1.5 }},
		{"mprob", func(p *Params) { p.MutationProb = -0.1 }},
		{"msigma", func(p *Params) { p.MutationSigmaFrac = -1 }},
		{"elites", func(p *Params) { p.Elites = p.PopulationSize }},
		{"tournament", func(p *Params) { p.TournamentSize = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
}

func TestRunOptimizesSphere(t *testing.T) {
	b := testBounds(t, 5)
	center := []float64{3, -2, 0, 7, -7}
	p := DefaultParams()
	p.PopulationSize = 60
	p.Generations = 40
	history, _ := run(sphere(center), b, p, 11)
	best := history[0].Best
	for _, gs := range history {
		if gs.Best.Fitness > best.Fitness {
			best = gs.Best
		}
	}
	if best.Fitness < -1.0 {
		t.Errorf("GA failed to approach optimum: best fitness %v", best.Fitness)
	}
	for i := range center {
		if math.Abs(best.Genome[i]-center[i]) > 1.0 {
			t.Errorf("gene %d = %v, want ~%v", i, best.Genome[i], center[i])
		}
	}
}

func TestRunFitnessImprovesOverGenerations(t *testing.T) {
	// The core Fig. 6 property: generation means trend upward.
	b := testBounds(t, 6)
	p := DefaultParams()
	p.PopulationSize = 50
	p.Generations = 15
	history, _ := run(sphere(make([]float64, 6)), b, p, 3)
	first := history[0]
	last := history[len(history)-1]
	if last.Mean <= first.Mean {
		t.Errorf("mean fitness did not improve: %v -> %v", first.Mean, last.Mean)
	}
	if last.Max < first.Max {
		t.Errorf("max fitness regressed: %v -> %v", first.Max, last.Max)
	}
}

func TestElitismPreservesBest(t *testing.T) {
	b := testBounds(t, 3)
	p := DefaultParams()
	p.PopulationSize = 20
	p.Generations = 12
	p.Elites = 2
	history, _ := run(sphere([]float64{0, 0, 0}), b, p, 9)
	// With elitism and a deterministic fitness, the per-generation best
	// must be non-decreasing.
	prev := math.Inf(-1)
	for _, gs := range history {
		if gs.Max < prev-1e-9 {
			t.Fatalf("best fitness dropped from %v to %v at generation %d", prev, gs.Max, gs.Generation)
		}
		prev = gs.Max
	}
}

func TestPopulationBest(t *testing.T) {
	pop := Population{
		{Fitness: 1, Evaluated: true},
		{Fitness: 5, Evaluated: true},
		{Fitness: 9, Evaluated: false}, // unevaluated: ignored
	}
	if got := pop.Best(); got != 1 {
		t.Errorf("Best = %d, want 1", got)
	}
	if got := (Population{}).Best(); got != -1 {
		t.Errorf("empty Best = %d, want -1", got)
	}
}

func TestCrossoverOperatorsPreserveBounds(t *testing.T) {
	b := testBounds(t, 8)
	rng := stats.NewRNG(2)
	for _, op := range []CrossoverOp{OnePoint, TwoPoint, UniformX, Blend} {
		for trial := 0; trial < 200; trial++ {
			a := b.Random(rng)
			c := b.Random(rng)
			crossover(a, c, op, rng)
			if !b.Contains(a) || !b.Contains(c) {
				t.Fatalf("%v produced out-of-bounds children", op)
			}
		}
	}
}

func TestCrossoverExchangesGenes(t *testing.T) {
	rng := stats.NewRNG(4)
	a := []float64{1, 1, 1, 1, 1, 1}
	c := []float64{2, 2, 2, 2, 2, 2}
	crossover(a, c, OnePoint, rng)
	// After one-point crossover both children hold a mix (cut >= 1).
	changed := false
	for i := range a {
		if a[i] == 2 {
			changed = true
		}
	}
	if !changed {
		t.Error("one-point crossover exchanged nothing")
	}
	// Gene multiset is preserved position-wise.
	for i := range a {
		if a[i]+c[i] != 3 {
			t.Fatalf("gene %d not preserved: %v + %v", i, a[i], c[i])
		}
	}
}

func TestCrossoverSingleGeneNoop(t *testing.T) {
	rng := stats.NewRNG(4)
	a := []float64{1}
	c := []float64{2}
	crossover(a, c, OnePoint, rng)
	if a[0] != 1 || c[0] != 2 {
		t.Error("single-gene crossover should be a no-op")
	}
}

func TestMutateRespectsBoundsAndProbability(t *testing.T) {
	b := testBounds(t, 100)
	rng := stats.NewRNG(6)
	g := b.Random(rng)
	orig := append([]float64(nil), g...)
	mutate(g, b, 0, 0.5, rng)
	for i := range g {
		if g[i] != orig[i] {
			t.Fatal("zero-probability mutation changed a gene")
		}
	}
	mutate(g, b, 1, 0.5, rng)
	if !b.Contains(g) {
		t.Error("mutation escaped bounds")
	}
	changedCount := 0
	for i := range g {
		if g[i] != orig[i] {
			changedCount++
		}
	}
	if changedCount < 90 {
		t.Errorf("probability-1 mutation changed only %d/100 genes", changedCount)
	}
}

func TestSelectionPrefersFitter(t *testing.T) {
	pop := Population{
		{Fitness: 0, Evaluated: true},
		{Fitness: 10, Evaluated: true},
	}
	rng := stats.NewRNG(8)
	winners := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if tournamentSelect(pop, 2, rng) == 1 {
			winners++
		}
	}
	// Tournament of 2 over 2 individuals picks the better one w.p. 3/4.
	if frac := float64(winners) / n; math.Abs(frac-0.75) > 0.05 {
		t.Errorf("tournament picked fitter %v of the time, want ~0.75", frac)
	}
	winners = 0
	for i := 0; i < n; i++ {
		if rouletteSelect(pop, rng) == 1 {
			winners++
		}
	}
	// Shifted-roulette gives all mass to the fitter of the two.
	if frac := float64(winners) / n; frac < 0.95 {
		t.Errorf("roulette picked fitter only %v of the time", frac)
	}
}

func TestRouletteDegenerateUniform(t *testing.T) {
	pop := Population{
		{Fitness: 5, Evaluated: true},
		{Fitness: 5, Evaluated: true},
		{Fitness: 5, Evaluated: true},
	}
	rng := stats.NewRNG(10)
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		counts[rouletteSelect(pop, rng)]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("degenerate roulette biased: counts[%d] = %d", i, c)
		}
	}
}

func TestOperatorParsing(t *testing.T) {
	if op, err := ParseSelectionOp("tournament"); err != nil || op != Tournament {
		t.Error("tournament parse failed")
	}
	if op, err := ParseSelectionOp("roulette"); err != nil || op != Roulette {
		t.Error("roulette parse failed")
	}
	if _, err := ParseSelectionOp("bogus"); err == nil {
		t.Error("bogus selection accepted")
	}
	for name, want := range map[string]CrossoverOp{
		"one-point": OnePoint, "onepoint": OnePoint, "two-point": TwoPoint,
		"twopoint": TwoPoint, "uniform": UniformX, "blend": Blend,
	} {
		if op, err := ParseCrossoverOp(name); err != nil || op != want {
			t.Errorf("crossover parse %q failed", name)
		}
	}
	if _, err := ParseCrossoverOp("bogus"); err == nil {
		t.Error("bogus crossover accepted")
	}
	_ = Tournament.String()
	_ = Roulette.String()
	_ = SelectionOp(9).String()
	_ = OnePoint.String()
	_ = TwoPoint.String()
	_ = UniformX.String()
	_ = Blend.String()
	_ = CrossoverOp(9).String()
}

func TestFromConfig(t *testing.T) {
	c, err := config.Parse(`
pop.size = 40
generations = 7
select = roulette
crossover = blend
crossover.prob = 0.8
mutation.prob = 0.2
mutation.sigma = 0.05
elites = 3
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	if p.PopulationSize != 40 || p.Generations != 7 || p.Selection != Roulette ||
		p.Crossover != Blend || p.CrossoverProb != 0.8 || p.MutationProb != 0.2 ||
		p.MutationSigmaFrac != 0.05 || p.Elites != 3 {
		t.Errorf("parsed params = %+v", p)
	}
}

func TestFromConfigErrors(t *testing.T) {
	bad, _ := config.Parse("select = bogus")
	if _, err := FromConfig(bad); err == nil {
		t.Error("bad selection accepted")
	}
	bad2, _ := config.Parse("pop.size = nope")
	if _, err := FromConfig(bad2); err == nil {
		t.Error("bad pop size accepted")
	}
	bad3, _ := config.Parse("pop.size = 1")
	if _, err := FromConfig(bad3); err == nil {
		t.Error("invalid params accepted")
	}
}

func BenchmarkGAGeneration(b *testing.B) {
	bounds, err := NewBounds(make([]float64, 9), []float64{1, 1, 1, 1, 1, 1, 1, 1, 1})
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultParams()
	p.PopulationSize = 50
	p.Generations = 5
	fitness := sphere(make([]float64, 9))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run(fitness, bounds, p, 1)
	}
}
