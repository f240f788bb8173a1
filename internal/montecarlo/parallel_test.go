package montecarlo

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"acasxval/internal/encounter"
	"acasxval/internal/stats"
)

// TestEvaluateWorkerCountInvariance: the estimate must be bit-identical for
// any worker count, because every episode's RNG streams derive
// counter-style from (seed, episode index) rather than from the worker that
// happens to run it. This is the property that lets the campaign and search
// engines spill episode-level parallelism onto idle cores without
// perturbing a single golden file.
func TestEvaluateWorkerCountInvariance(t *testing.T) {
	model := DefaultEncounterModel()
	cfg := DefaultConfig()
	cfg.Samples = 60
	cfg.Seed = 99

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
			t.Errorf("workers=%d: estimate differs from workers=%d\n got: %+v\nwant: %+v",
				workers, counts[0], est, base)
		}
	}
	if base.NMACs == 0 {
		t.Error("invariance fixture produced no NMACs; the comparison is vacuous for collision stats")
	}
}

// TestEvaluateScratchWorldReuse: successive evaluations through one scratch
// (the campaign/search steady state) must match scratch-free evaluations
// bit for bit even when the run configuration changes between calls, which
// exercises the world re-wiring path.
func TestEvaluateScratchWorldReuse(t *testing.T) {
	model := DefaultEncounterModel()
	scratch := &Scratch{}

	cfgA := DefaultConfig()
	cfgA.Samples = 20
	cfgA.Seed = 7
	cfgA.Parallelism = 2

	cfgB := cfgA
	cfgB.Run.UseTracker = false
	cfgB.Seed = 8

	for _, cfg := range []Config{cfgA, cfgB, cfgA} {
		got, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, cfg, scratch)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Errorf("scratch-reuse estimate differs\n got: %+v\nwant: %+v", got, want)
		}
	}
}

// TestMixturePreparedEquivalence: a prepared mixture must draw the exact
// stream an unprepared one does — the cumulative-weight cache is a pure
// speedup, not a behavior change.
func TestMixturePreparedEquivalence(t *testing.T) {
	raw := Mixture{
		Components: []Distribution{
			Uniform{Min: 0, Max: 1},
			TruncNormal{Mean: 10, Sigma: 2, Min: 5, Max: 15},
			Constant{Value: -3},
		},
		Weights: []float64{0.2, 1.3, 0.5},
	}
	prep := raw.Prepared()
	a, b := stats.NewRNG(42), stats.NewRNG(42)
	for i := 0; i < 2000; i++ {
		x, y := raw.Sample(a), prep.Sample(b)
		if x != y {
			t.Fatalf("draw %d: raw %v != prepared %v", i, x, y)
		}
	}
}

// TestMixtureEmptyWeights: a hand-assembled mixture with components but no
// weights (invalid, but Sample predates Validate in some call orders) must
// fall back to the last component, as it always has — not panic on an
// empty cumulative-weight cache.
func TestMixtureEmptyWeights(t *testing.T) {
	m := Mixture{Components: []Distribution{Constant{Value: 2}}}
	if got := m.Sample(stats.NewRNG(1)); got != 2 {
		t.Errorf("weightless mixture sampled %v, want the last component's 2", got)
	}
}

// TestNewMixture: the constructor validates and prepares in one step, and
// rejects what Validate rejects.
func TestNewMixture(t *testing.T) {
	m, err := NewMixture(
		[]Distribution{Constant{1}, Constant{2}},
		[]float64{1, 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.cum) != 2 || m.cum[1] != 4 {
		t.Errorf("cumulative weights = %v, want [1 4]", m.cum)
	}
	if _, err := NewMixture([]Distribution{Constant{1}}, []float64{-1}); err == nil {
		t.Error("NewMixture accepted a negative weight")
	}
}

// TestSampleIntoEquivalence: SampleInto must draw the same encounter Sample
// does and leave the raw (pre-clamp) draws in the caller's buffer.
func TestSampleIntoEquivalence(t *testing.T) {
	model := DefaultEncounterModel()
	a, b := stats.NewRNG(5), stats.NewRNG(5)
	var buf [encounter.NumParams]float64
	for i := 0; i < 500; i++ {
		want := model.Sample(a)
		got := model.SampleInto(b, &buf)
		if got != want {
			t.Fatalf("draw %d: SampleInto %+v != Sample %+v", i, got, want)
		}
		// The clamped parameters must be the clamp of the buffered draws.
		raw, err := encounter.FromVector(buf[:])
		if err != nil {
			t.Fatal(err)
		}
		if model.Ranges.Clamp(raw) != got {
			t.Fatalf("draw %d: buffer %v does not clamp to returned params", i, buf)
		}
	}
}

// BenchmarkEvaluateSteadyState measures the per-episode steady state of the
// evaluator (b.N is the episode count of a single estimate), so allocs/op
// is allocations per episode. CI gates on this staying ~0: the worlds, the
// RNGs, the draw buffers and the outcome buffer are all reused, and the
// only remaining allocations are the per-call setup amortized across b.N
// episodes.
func BenchmarkEvaluateSteadyState(b *testing.B) {
	model := DefaultEncounterModel()
	cfg := DefaultConfig()
	cfg.Samples = b.N
	cfg.Seed = 1
	cfg.Parallelism = 1
	scratch := &Scratch{}
	b.ReportAllocs()
	b.ResetTimer()
	est, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, cfg, scratch)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(est.PNMAC, "P-NMAC")
}

// BenchmarkEvaluateEquippedSteadyState is the table-bound counterpart of
// BenchmarkEvaluateSteadyState: both aircraft run the ACAS executive over
// the head-on conflict geometry (the point model keeps every decision cycle
// inside the optimization horizon), so each episode pays the interpolated
// table gathers that dominate equipped campaign and search workloads.
// episodes/s is the headline metric (the cabench mc-equipped workload
// measures it end to end); allocs/op is per-episode steady state and must
// stay ~0.
func BenchmarkEvaluateEquippedSteadyState(b *testing.B) {
	model := PointModel(encounter.PresetHeadOn())
	b.Run("exact", func(b *testing.B) {
		factory := acasFactory(b)
		cfg := DefaultConfig()
		cfg.Samples = b.N
		cfg.Seed = 1
		cfg.Parallelism = 1
		scratch := &Scratch{}
		b.ReportAllocs()
		b.ResetTimer()
		est, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(model), factory, cfg, scratch)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "episodes/s")
		b.ReportMetric(est.PNMAC, "P-NMAC")
	})
}

// BenchmarkEvaluateParallel reports wall-clock scaling of one estimate
// across worker counts (episodes per second; the estimate itself is
// invariant). The speedup tracks the physical core count — a single-core
// snapshot machine correctly shows a flat profile.
func BenchmarkEvaluateParallel(b *testing.B) {
	model := DefaultEncounterModel()
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Samples = 512
			cfg.Seed = 1
			cfg.Parallelism = workers
			scratch := &Scratch{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, cfg, scratch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cfg.Samples)*float64(b.N)/b.Elapsed().Seconds(), "episodes/s")
		})
	}
}
