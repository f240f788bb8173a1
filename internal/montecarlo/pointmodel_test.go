package montecarlo

import (
	"context"
	"testing"

	"acasxval/internal/encounter"
	"acasxval/internal/sim"
	"acasxval/internal/stats"
)

func TestConstantDistribution(t *testing.T) {
	c := Constant{Value: 3.25}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(1)
	for i := 0; i < 10; i++ {
		if got := c.Sample(rng); got != 3.25 {
			t.Fatalf("Constant.Sample = %v, want 3.25", got)
		}
	}
}

func TestPointModelReplaysScenario(t *testing.T) {
	p, err := encounter.Preset("tailchase")
	if err != nil {
		t.Fatal(err)
	}
	m := PointModel(p)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(99)
	for i := 0; i < 5; i++ {
		if got := m.Sample(rng); got != p {
			t.Fatalf("PointModel sample %d = %v, want %v", i, got, p)
		}
	}
}

// A point model through the brute-force kernel estimates one fixed
// scenario's stochastic outcome distribution — the campaign engine's
// per-cell workload.
func TestEvaluatePointModel(t *testing.T) {
	p, err := encounter.Preset("headon")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Samples: 20, Run: sim.DefaultRunConfig(), Seed: 5, Parallelism: 2}
	est, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(PointModel(p)), Unequipped, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// An unequipped zero-miss head-on collides essentially every time.
	if est.PNMAC < 0.9 {
		t.Errorf("P(NMAC) = %v for unequipped head-on point model, want >= 0.9", est.PNMAC)
	}
	// Determinism under the same seed.
	est2, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(PointModel(p)), Unequipped, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if *est != *est2 {
		t.Error("point-model evaluation not deterministic under fixed seed")
	}
}
