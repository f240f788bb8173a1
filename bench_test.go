package acasxval

// The benchmark harness regenerates every evaluation artifact of the paper
// (see DESIGN.md section 4 and EXPERIMENTS.md for the paper-vs-measured
// record):
//
//	E1  Fig. 5      BenchmarkFig5HeadOn
//	E2  Fig. 6      BenchmarkFig6GASearch (scaled; cmd/casearch runs the
//	                paper-scale pop=200 x 5 generations x 100 sims)
//	E3  Figs. 7-8   BenchmarkFig7Fig8TailApproach
//	E4  section III BenchmarkSectionIIIGrid2D
//	E5  footnote 2  BenchmarkValueIterationFullTable
//	E6  footnote 5  reported by cmd/casearch (wall-clock of E2)
//	E7  section V   BenchmarkGAVersusRandomSearch
//	E8  section IV  BenchmarkMonteCarloRiskRatio
//
// Benchmarks report shape metrics (NMAC rates, fitness, risk ratios) via
// b.ReportMetric so `go test -bench` output documents the reproduced
// numbers alongside the timings.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"acasxval/internal/grid2d"
	"acasxval/internal/search"
	"acasxval/internal/sim"
	"acasxval/internal/stats"
)

var (
	benchTableOnce sync.Once
	benchTable     *Table
	benchTableErr  error
)

func benchLogicTable(tb testing.TB) *Table {
	tb.Helper()
	benchTableOnce.Do(func() {
		cfg := DefaultTableConfig()
		cfg.Workers = 8
		benchTable, benchTableErr = BuildLogicTable(cfg)
	})
	if benchTableErr != nil {
		tb.Fatal(benchTableErr)
	}
	return benchTable
}

// BenchmarkFig5HeadOn (E1) simulates the paper's Fig. 5 scenario: a head-on
// encounter resolved by coordinated climb/descend advisories. Reported
// metrics: NMAC rate (want ~0) and mean minimum separation. One
// EncounterRunner carries the simulation world across iterations, so
// allocs/op is per-episode steady state and CI gates on it staying 0.
func BenchmarkFig5HeadOn(b *testing.B) {
	table := benchLogicTable(b)
	runner, err := NewEncounterRunner(DefaultRunConfig())
	if err != nil {
		b.Fatal(err)
	}
	p := PresetHeadOn()
	own := sim.NewACASXU(table)
	intr := sim.NewACASXU(table)
	nmacs := 0
	var sep stats.Accumulator
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(p, own, intr, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.NMAC {
			nmacs++
		}
		sep.Add(res.MinSeparation)
	}
	b.ReportMetric(float64(nmacs)/float64(b.N), "NMAC-rate")
	b.ReportMetric(sep.Mean(), "mean-min-sep-m")
}

// BenchmarkFig6GASearch (E2, scaled) runs the GA-based search at reduced
// scale and reports the fitness climb between the first and last
// generation — the upward trend Fig. 6 plots. The full paper-scale run
// (population 200, 5 generations, 100 sims per encounter) is
// `cmd/casearch`.
func BenchmarkFig6GASearch(b *testing.B) {
	table := benchLogicTable(b)
	factory := func() (sim.System, sim.System) {
		return sim.NewACASXU(table), sim.NewACASXU(table)
	}
	spec := DefaultSearchSpec()
	spec.Islands = 1
	spec.GA.PopulationSize = 20
	spec.GA.Generations = 3
	spec.Fitness.SimsPerEncounter = 10
	var firstMean, lastMean, best float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Seed = uint64(i + 1)
		res, err := RunSearchContext(context.Background(), spec, factory, SearchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		history := res.Islands[0]
		firstMean = history[0].Mean
		lastMean = history[len(history)-1].Mean
		best = res.Best.Fitness
	}
	b.ReportMetric(firstMean, "gen0-mean-fitness")
	b.ReportMetric(lastMean, "genN-mean-fitness")
	b.ReportMetric(best, "best-fitness")
}

// BenchmarkFig7Fig8TailApproach (E3) measures the accident-rate contrast of
// section VII: tail-approach encounters collide in 80-90 of 100 runs while
// head-on encounters collide in fewer than 5 of 100.
func BenchmarkFig7Fig8TailApproach(b *testing.B) {
	table := benchLogicTable(b)
	factory := func() (sim.System, sim.System) {
		return sim.NewACASXU(table), sim.NewACASXU(table)
	}
	cfg := DefaultMonteCarloConfig()
	cfg.Samples = 100
	tailModel := PointEncounterModel(PresetTailApproach())
	headModel := PointEncounterModel(PresetHeadOn())
	var tailRate, headRate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		tail, err := EstimateRiskContext(context.Background(), tailModel, factory, cfg)
		if err != nil {
			b.Fatal(err)
		}
		head, err := EstimateRiskContext(context.Background(), headModel, factory, cfg)
		if err != nil {
			b.Fatal(err)
		}
		tailRate = tail.PNMAC
		headRate = head.PNMAC
	}
	b.ReportMetric(tailRate*100, "tail-NMACs-per-100")
	b.ReportMetric(headRate*100, "headon-NMACs-per-100")
}

// BenchmarkSectionIIIGrid2D (E4) solves the paper's worked 2-D example and
// reports the collision-rate improvement of the generated logic over the
// never-maneuver baseline.
func BenchmarkSectionIIIGrid2D(b *testing.B) {
	m, err := NewGrid2D(DefaultGrid2DConfig())
	if err != nil {
		b.Fatal(err)
	}
	var baseline, withLogic float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lt, err := SolveGrid2D(m)
		if err != nil {
			b.Fatal(err)
		}
		rng := stats.NewRNG(uint64(i + 1))
		initial := grid2d.State{YO: 0, XR: 9, YI: 0}
		baseline = m.CollisionRate(grid2d.AlwaysLevel, initial, 400, rng)
		withLogic = m.CollisionRate(lt.Action, initial, 400, rng)
	}
	b.ReportMetric(baseline, "baseline-collision-rate")
	b.ReportMetric(withLogic, "logic-collision-rate")
}

// BenchmarkValueIterationFullTable (E5) times the full-resolution offline
// solve. The paper's footnote 2: "For the real ACAS XU model, Value
// Iteration takes several minutes (less than 5 minutes) on an ordinary
// laptop PC."
func BenchmarkValueIterationFullTable(b *testing.B) {
	cfg := DefaultTableConfig()
	cfg.Workers = 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := BuildLogicTable(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(table.NumEntries()), "table-entries")
	}
}

// BenchmarkGAVersusRandomSearch (E7) compares, at an equal simulated
// budget, the challenging encounters found by the GA and by uniform random
// search (the comparison of the authors' earlier SOSP/SAFECOMP study,
// reference [7]). Both arms count fresh evaluations only.
func BenchmarkGAVersusRandomSearch(b *testing.B) {
	table := benchLogicTable(b)
	factory := func() (sim.System, sim.System) {
		return sim.NewACASXU(table), sim.NewACASXU(table)
	}
	spec := DefaultSearchSpec()
	spec.Islands = 1
	spec.GA.PopulationSize = 15
	spec.GA.Generations = 4
	spec.Fitness.SimsPerEncounter = 8
	var gaHits, rndHits stats.Accumulator
	const threshold = 9000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Seed = uint64(i + 1)
		cmp, err := search.CompareSearch(context.Background(), spec, factory, 1, threshold)
		if err != nil {
			b.Fatal(err)
		}
		gaHits.Add(cmp.GAHits[0])
		rndHits.Add(cmp.RandomHits[0])
	}
	b.ReportMetric(gaHits.Mean(), "ga-cases-per-budget")
	b.ReportMetric(rndHits.Mean(), "random-cases-per-budget")
}

// BenchmarkMonteCarloRiskRatio (E8) estimates the NMAC risk ratio of the
// equipped system against the unequipped baseline over the statistical
// encounter model — the Monte-Carlo validation path of section IV.
func BenchmarkMonteCarloRiskRatio(b *testing.B) {
	table := benchLogicTable(b)
	model := DefaultEncounterModel()
	mcCfg := DefaultMonteCarloConfig()
	mcCfg.Samples = 200
	factory := func() (sim.System, sim.System) {
		return sim.NewACASXU(table), sim.NewACASXU(table)
	}
	var ratio, pEquipped, pBase float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mcCfg.Seed = uint64(i + 1)
		unequipped, err := EstimateRiskContext(context.Background(), model, Unequipped, mcCfg)
		if err != nil {
			b.Fatal(err)
		}
		equipped, err := EstimateRiskContext(context.Background(), model, factory, mcCfg)
		if err != nil {
			b.Fatal(err)
		}
		r, err := RiskRatio(equipped, unequipped)
		if err != nil {
			b.Fatal(err)
		}
		ratio = r
		pEquipped = equipped.PNMAC
		pBase = unequipped.PNMAC
	}
	b.ReportMetric(ratio, "risk-ratio")
	b.ReportMetric(pEquipped, "P-NMAC-equipped")
	b.ReportMetric(pBase, "P-NMAC-unequipped")
}

// BenchmarkCampaignSweep measures the batch validation engine: a full
// preset sweep of the table logic and baselines through the campaign
// worker pool. Reported metric: simulations per campaign.
func BenchmarkCampaignSweep(b *testing.B) {
	table := benchLogicTable(b)
	systems := DefaultCampaignSystems(table)
	spec := DefaultCampaignSpec()
	spec.Systems = []string{"none", "acasx", "svo"}
	spec.Samples = 4
	var runs, nmacRate float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Seed = uint64(i + 1)
		res, err := RunCampaignContext(context.Background(), spec, systems, nil)
		if err != nil {
			b.Fatal(err)
		}
		runs = float64(res.TotalRuns)
		for _, s := range res.Summaries {
			if s.System == "none" {
				nmacRate = s.PNMAC
			}
		}
	}
	b.ReportMetric(runs, "sims-per-campaign")
	b.ReportMetric(nmacRate, "baseline-P-NMAC")
}

// BenchmarkIslandSearch measures the island-model adversarial search
// engine's throughput at a fixed total budget (24 individuals per
// generation split across the islands), so the enc-evals/s metric shows how
// search throughput scales with island count.
func BenchmarkIslandSearch(b *testing.B) {
	table := benchLogicTable(b)
	factory := func() (sim.System, sim.System) {
		return sim.NewACASXU(table), sim.NewACASXU(table)
	}
	for _, islands := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("islands=%d", islands), func(b *testing.B) {
			spec := DefaultSearchSpec()
			spec.Islands = islands
			spec.MigrationInterval = 1
			spec.MigrationSize = 1
			spec.GA.PopulationSize = 24 / islands
			spec.GA.Generations = 3
			spec.Fitness.SimsPerEncounter = 8
			spec.ArchiveThreshold = 4000
			var evalsPerSec, archived float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spec.Seed = uint64(i + 1)
				res, err := RunSearchContext(context.Background(), spec, factory, SearchOptions{})
				if err != nil {
					b.Fatal(err)
				}
				evalsPerSec = float64(res.NumEvaluations) / res.Elapsed.Seconds()
				archived = float64(res.Archive.Len())
			}
			b.ReportMetric(evalsPerSec, "enc-evals/s")
			b.ReportMetric(archived, "archived")
		})
	}
}

// BenchmarkTableLookupHot exercises the online logic's hot path: a single
// interpolated advisory query through the shared-weight scan
// (Table.BestAdvisory). CI gates on this benchmark reporting
// 0 allocs/op, and the perf tripwire (scripts/benchgate.sh) fails a >25%
// ns/op regression against the base commit.
func BenchmarkTableLookupHot(b *testing.B) {
	table := benchLogicTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.BestAdvisory(12.5, 30, 1.5, -2.5, COC, SenseMask{})
	}
}

// BenchmarkBackendComparison sweeps every registered system backend over
// the head-on preset under the Monte-Carlo harness and reports each
// backend's risk ratio against the unequipped baseline — the
// backend-versus-table record EXPERIMENTS.md tracks, regenerated from the
// registry so a newly registered backend is measured without touching this
// harness. One op is one full menu sweep.
func BenchmarkBackendComparison(b *testing.B) {
	ctx := SystemContext{Table: benchLogicTable(b)}
	model := PointEncounterModel(PresetHeadOn())
	cfg := DefaultMonteCarloConfig()
	cfg.Samples = 200
	names := SystemNames()
	ratios := make(map[string]float64, len(names))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		estimates := make(map[string]*RiskEstimate, len(names))
		for _, name := range names {
			factory, err := NewSystemFactory(ctx, SystemSpec{Name: name})
			if err != nil {
				b.Fatal(err)
			}
			est, err := EstimateRiskContext(context.Background(), model, factory, cfg)
			if err != nil {
				b.Fatal(err)
			}
			estimates[name] = est
		}
		for _, name := range names {
			ratio, err := RiskRatio(estimates[name], estimates["none"])
			if err != nil {
				b.Fatal(err)
			}
			ratios[name] = ratio
		}
	}
	for _, name := range names {
		b.ReportMetric(ratios[name], "risk-ratio-"+name)
	}
}
