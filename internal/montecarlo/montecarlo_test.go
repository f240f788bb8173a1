package montecarlo

import (
	"context"
	"math"
	"sync"
	"testing"

	"acasxval/internal/acasx"
	"acasxval/internal/sim"
	"acasxval/internal/stats"
)

var (
	tableOnce sync.Once
	testTable *acasx.Table
	tableErr  error
)

// pairwise wraps one encounter model as the K=1 multi-intruder model the
// estimators take.
func pairwise(m EncounterModel) MultiEncounterModel {
	return MultiEncounterModel{Intruders: []EncounterModel{m}}
}

func acasFactory(tb testing.TB) SystemFactory {
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

func TestUniform(t *testing.T) {
	d := Uniform{Min: 2, Max: 4}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(1)
	for i := 0; i < 1000; i++ {
		x := d.Sample(rng)
		if x < 2 || x > 4 {
			t.Fatalf("sample %v outside [2, 4]", x)
		}
	}
	if err := (Uniform{Min: 4, Max: 2}).Validate(); err == nil {
		t.Error("inverted uniform accepted")
	}
	// Degenerate.
	if got := (Uniform{Min: 3, Max: 3}).Sample(rng); got != 3 {
		t.Errorf("degenerate sample = %v", got)
	}
}

func TestTruncNormal(t *testing.T) {
	d := TruncNormal{Mean: 0, Sigma: 1, Min: -2, Max: 2}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(2)
	var acc stats.Accumulator
	for i := 0; i < 5000; i++ {
		x := d.Sample(rng)
		if x < -2 || x > 2 {
			t.Fatalf("sample %v outside truncation", x)
		}
		acc.Add(x)
	}
	if math.Abs(acc.Mean()) > 0.1 {
		t.Errorf("mean = %v, want ~0", acc.Mean())
	}
	if err := (TruncNormal{Sigma: -1}).Validate(); err == nil {
		t.Error("negative sigma accepted")
	}
	if err := (TruncNormal{Min: 1, Max: 0}).Validate(); err == nil {
		t.Error("empty truncation accepted")
	}
	// Impossible region: falls back to clamped mean.
	far := TruncNormal{Mean: 100, Sigma: 0.001, Min: 0, Max: 1}
	if got := far.Sample(rng); got != 1 {
		t.Errorf("fallback sample = %v, want 1", got)
	}
}

func TestMixture(t *testing.T) {
	m := Mixture{
		Components: []Distribution{Uniform{Min: 0, Max: 1}, Uniform{Min: 10, Max: 11}},
		Weights:    []float64{0.8, 0.2},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(3)
	low := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if m.Sample(rng) < 5 {
			low++
		}
	}
	if frac := float64(low) / n; math.Abs(frac-0.8) > 0.02 {
		t.Errorf("low-component fraction = %v, want ~0.8", frac)
	}
	if err := (Mixture{}).Validate(); err == nil {
		t.Error("empty mixture accepted")
	}
	if err := (Mixture{Components: []Distribution{Uniform{}}, Weights: []float64{-1}}).Validate(); err == nil {
		t.Error("negative weight accepted")
	}
	if err := (Mixture{Components: []Distribution{Uniform{}}, Weights: []float64{0}}).Validate(); err == nil {
		t.Error("zero-mass mixture accepted")
	}
}

func TestDefaultEncounterModel(t *testing.T) {
	m := DefaultEncounterModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(4)
	for i := 0; i < 500; i++ {
		p := m.Sample(rng)
		v := p.Vector()
		lo, hi := m.Ranges.Bounds()
		for g := range v {
			if v[g] < lo[g]-1e-9 || v[g] > hi[g]+1e-9 {
				t.Fatalf("sampled gene %d = %v outside ranges", g, v[g])
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Samples = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero samples accepted")
	}
	bad2 := DefaultConfig()
	bad2.Confidence = 1.5
	if err := bad2.Validate(); err == nil {
		t.Error("bad confidence accepted")
	}
	bad3 := DefaultConfig()
	bad3.Run.Dt = -1
	if err := bad3.Validate(); err == nil {
		t.Error("bad run config accepted")
	}
}

func TestEvaluateErrors(t *testing.T) {
	model := DefaultEncounterModel()
	if _, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(model), nil, DefaultConfig(), nil); err == nil {
		t.Error("nil factory accepted")
	}
	badModel := model
	badModel.TimeToCPA = nil
	if _, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(badModel), Unequipped, DefaultConfig(), nil); err == nil {
		t.Error("nil distribution accepted")
	}
	cfg := DefaultConfig()
	cfg.Samples = -1
	if _, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, cfg, nil); err == nil {
		t.Error("bad config accepted")
	}
}

// TestUnequippedBaselineCollidesOften: the model samples conflicts by
// construction, so the unequipped NMAC probability must be high.
func TestUnequippedBaselineCollidesOften(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Samples = 300
	cfg.Seed = 5
	est, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(DefaultEncounterModel()), Unequipped, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if est.PNMAC < 0.5 {
		t.Errorf("unequipped P(NMAC) = %v, want > 0.5", est.PNMAC)
	}
	if est.AlertRate != 0 || est.MeanAlerts != 0 {
		t.Error("unequipped aircraft alerted")
	}
	if !est.PNMACCI.Contains(est.PNMAC) {
		t.Error("CI does not contain the point estimate")
	}
}

// TestEquippedRiskRatioWellBelowOne is the E8 shape: the system removes
// most of the collision risk.
func TestEquippedRiskRatioWellBelowOne(t *testing.T) {
	factory := acasFactory(t)
	cfg := DefaultConfig()
	cfg.Samples = 300
	cfg.Seed = 5
	unequipped, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(DefaultEncounterModel()), Unequipped, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	equipped, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(DefaultEncounterModel()), factory, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := RiskRatio(equipped, unequipped)
	if err != nil {
		t.Fatal(err)
	}
	if ratio > 0.5 {
		t.Errorf("risk ratio = %v (equipped %v / unequipped %v), want < 0.5",
			ratio, equipped.PNMAC, unequipped.PNMAC)
	}
	if equipped.AlertRate == 0 {
		t.Error("equipped system never alerted")
	}
}

func TestRiskRatioUndefined(t *testing.T) {
	if _, err := RiskRatio(&Estimate{}, &Estimate{}); err == nil {
		t.Error("zero-baseline ratio accepted")
	}
}

func TestEvaluateDeterministicAcrossParallelism(t *testing.T) {
	model := DefaultEncounterModel()
	mk := func(par int) *Estimate {
		cfg := DefaultConfig()
		cfg.Samples = 100
		cfg.Seed = 9
		cfg.Parallelism = par
		est, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	a := mk(1)
	b := mk(8)
	if a.NMACs != b.NMACs || a.MeanMinSeparation != b.MeanMinSeparation {
		t.Errorf("parallelism changed the estimate: %+v vs %+v", a, b)
	}
}

// TestEvaluateWithScratchReuse: reusing one scratch across successive
// evaluations (the campaign worker pattern) must not change any estimate,
// including when a larger evaluation precedes a smaller one and the buffer
// is re-sliced.
func TestEvaluateWithScratchReuse(t *testing.T) {
	model := DefaultEncounterModel()
	run := func(samples int, seed uint64, scratch *Scratch) *Estimate {
		cfg := DefaultConfig()
		cfg.Samples = samples
		cfg.Seed = seed
		cfg.Parallelism = 1
		est, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, cfg, scratch)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	var scratch Scratch
	for _, tc := range []struct {
		samples int
		seed    uint64
	}{{120, 3}, {40, 4}, {120, 3}, {80, 5}} {
		got := run(tc.samples, tc.seed, &scratch)
		want := run(tc.samples, tc.seed, nil)
		if *got != *want {
			t.Errorf("samples=%d seed=%d: scratch reuse changed the estimate: %+v vs %+v",
				tc.samples, tc.seed, got, want)
		}
	}
}
