package montecarlo

import (
	"context"
	"runtime"
	"testing"

	"acasxval/internal/encounter"
	"acasxval/internal/stats"
)

// TestEvaluateMultiWorkerCountInvariance: the K>1 estimate must stay
// bit-identical for any worker count — the acceptance criterion that lets
// multi-intruder campaigns and searches spill parallelism freely.
func TestEvaluateMultiWorkerCountInvariance(t *testing.T) {
	model := DefaultMultiEncounterModel(2)
	cfg := DefaultConfig()
	cfg.Samples = 60
	cfg.Seed = 99

	counts := []int{1, 2, 3, runtime.NumCPU()}
	var base *Estimate
	for _, workers := range counts {
		cfg.Parallelism = workers
		est, err := EvaluateMultiWithScratchContext(context.Background(), model, Unequipped, cfg, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = est
			continue
		}
		if *est != *base {
			t.Errorf("workers=%d: estimate differs from workers=%d\n got: %+v\nwant: %+v",
				workers, counts[0], est, base)
		}
	}
	if base.NMACs == 0 {
		t.Error("invariance fixture produced no NMACs; the comparison is vacuous for collision stats")
	}
}

// TestEvaluateMultiScratchAcrossIntruderCounts: one scratch cycling through
// evaluations of different K must match scratch-free evaluations bit for
// bit — fleet growth inside the reused worlds must not leak.
func TestEvaluateMultiScratchAcrossIntruderCounts(t *testing.T) {
	scratch := &Scratch{}
	cfg := DefaultConfig()
	cfg.Samples = 15
	cfg.Parallelism = 2
	for i, k := range []int{2, 1, 3, 2} {
		cfg.Seed = uint64(20 + i)
		model := DefaultMultiEncounterModel(k)
		got, err := EvaluateMultiWithScratchContext(context.Background(), model, Unequipped, cfg, scratch)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EvaluateMultiWithScratchContext(context.Background(), model, Unequipped, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Errorf("k=%d: scratch-reuse estimate differs\n got: %+v\nwant: %+v", k, got, want)
		}
	}
}

// TestMultiPointModelReplaysScenario: the degenerate model must reproduce
// its MultiParams on every draw.
func TestMultiPointModelReplaysScenario(t *testing.T) {
	m := encounter.MultiPresetSandwich()
	model := MultiPointModel(m)
	if err := model.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(3)
	for i := 0; i < 10; i++ {
		got := model.Sample(rng)
		if got.NumIntruders() != m.NumIntruders() {
			t.Fatalf("draw %d: %d intruders, want %d", i, got.NumIntruders(), m.NumIntruders())
		}
		for j := range m.Intruders {
			if got.Intruders[j] != m.Intruders[j] {
				t.Fatalf("draw %d intruder %d: %+v, want %+v", i, j, got.Intruders[j], m.Intruders[j])
			}
		}
	}
}

// TestMultiEncounterModelValidate: structural errors are rejected.
func TestMultiEncounterModelValidate(t *testing.T) {
	if err := (MultiEncounterModel{}).Validate(); err == nil {
		t.Error("empty multi model accepted")
	}
	bad := DefaultMultiEncounterModel(2)
	bad.Intruders[1].TimeToCPA = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil distribution accepted")
	}
}

// TestMultiSampleSharedOwnship: every sampled encounter is in canonical
// shared-ownship form.
func TestMultiSampleSharedOwnship(t *testing.T) {
	model := DefaultMultiEncounterModel(3)
	rng := stats.NewRNG(17)
	for i := 0; i < 50; i++ {
		m := model.Sample(rng)
		if err := m.Validate(); err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
	}
}

// BenchmarkEvaluateMultiIntruderSteadyState mirrors
// BenchmarkEvaluateSteadyState for two-intruder episodes: b.N is the
// episode count of a single estimate, so allocs/op is allocations per
// episode and CI gates on it staying ~0 — the multi-intruder engine must
// keep the zero-alloc steady state of the pairwise one.
func BenchmarkEvaluateMultiIntruderSteadyState(b *testing.B) {
	model := DefaultMultiEncounterModel(2)
	cfg := DefaultConfig()
	cfg.Samples = b.N
	cfg.Seed = 1
	cfg.Parallelism = 1
	scratch := &Scratch{}
	b.ReportAllocs()
	b.ResetTimer()
	est, err := EvaluateMultiWithScratchContext(context.Background(), model, Unequipped, cfg, scratch)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(est.PNMAC, "P-NMAC")
}
