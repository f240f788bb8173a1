package montecarlo

import (
	"context"
	"runtime"
	"testing"

	"acasxval/internal/fault"
)

// faultedConfig is the shared fixture: the default evaluation with the
// "severe" degradation profile layered on the sensor path.
func faultedConfig(tb testing.TB, samples int, seed uint64) Config {
	tb.Helper()
	p, err := fault.Preset("severe")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Samples = samples
	cfg.Seed = seed
	cfg.Run.Faults = p
	return cfg
}

// TestEvaluateWorkerCountInvarianceFaulted: with faults enabled the
// estimate must stay bit-identical for any worker count — the fault
// streams derive from (episode seed, aircraft) exactly like the
// dynamics/sensor streams, never from the worker that runs the episode.
func TestEvaluateWorkerCountInvarianceFaulted(t *testing.T) {
	model := DefaultEncounterModel()
	cfg := faultedConfig(t, 60, 99)

	counts := []int{1, 2, 3, runtime.NumCPU()}
	var base *Estimate
	for _, workers := range counts {
		cfg.Parallelism = workers
		est, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, cfg, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = est
			continue
		}
		if *est != *base {
			t.Errorf("workers=%d: faulted estimate differs from workers=%d\n got: %+v\nwant: %+v",
				workers, counts[0], est, base)
		}
	}
	if base.NMACs == 0 {
		t.Error("faulted invariance fixture produced no NMACs; the comparison is vacuous for collision stats")
	}
}

// TestFaultedScratchReuse: alternating faulted and fault-free
// evaluations through one scratch must match fresh evaluations bit for
// bit — stale per-link fault state must never leak across episodes or
// configurations.
func TestFaultedScratchReuse(t *testing.T) {
	model := DefaultEncounterModel()
	scratch := &Scratch{}

	clean := DefaultConfig()
	clean.Samples = 20
	clean.Seed = 7
	clean.Parallelism = 2
	faulted := faultedConfig(t, 20, 7)
	faulted.Parallelism = 2

	for _, cfg := range []Config{clean, faulted, clean, faulted} {
		got, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, cfg, scratch)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Errorf("faulted scratch-reuse estimate differs\n got: %+v\nwant: %+v", got, want)
		}
	}
}

// TestFaultsDegradeEquippedPerformance: under the severe profile an
// equipped fixture must do no better than it does with clean
// surveillance — the degradation axis points the right way.
func TestFaultsDegradeEquippedPerformance(t *testing.T) {
	model := DefaultEncounterModel()
	clean := DefaultConfig()
	clean.Samples = 200
	clean.Seed = 31
	cleanEst, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, clean, nil)
	if err != nil {
		t.Fatal(err)
	}
	faulted := faultedConfig(t, 200, 31)
	faultEst, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, faulted, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Unequipped flight ignores surveillance entirely, so the dynamics
	// must be untouched by the fault layer: identical NMAC counts.
	if cleanEst.NMACs != faultEst.NMACs {
		t.Errorf("faults changed unequipped NMACs: %d clean vs %d faulted (fault layer leaked into dynamics)",
			cleanEst.NMACs, faultEst.NMACs)
	}
}

// BenchmarkEvaluateFaultedSteadyState is the faulted sibling of
// BenchmarkEvaluateSteadyState: allocs/op is allocations per episode
// with the severe profile active, and CI gates on it staying 0 — the
// burst channels and delay queues live in runner scratch and are reset
// in place.
func BenchmarkEvaluateFaultedSteadyState(b *testing.B) {
	model := DefaultEncounterModel()
	cfg := faultedConfig(b, b.N, 1)
	cfg.Parallelism = 1
	scratch := &Scratch{}
	// One warm-up estimate grows the per-link fault state to its steady
	// size, exactly as the campaign's first cell would.
	warm := cfg
	warm.Samples = 2
	if _, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, warm, scratch); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	est, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, cfg, scratch)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(est.PNMAC, "P-NMAC")
}
