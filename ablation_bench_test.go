package acasxval

// Ablation benchmarks for the design choices of the reproduction (README):
// coordination, track filtering, sensor noise, response delay, table lookup
// mode, offline-model noise, and GA operator settings. Each bench reports
// the safety-relevant metric for both arms via b.ReportMetric, so
// `go test -bench=Ablation` prints a compact ablation table.

import (
	"context"
	"math"
	"testing"

	"acasxval/internal/acasx"
	"acasxval/internal/ga"
	"acasxval/internal/interp"
	"acasxval/internal/sim"
	"acasxval/internal/stats"
	"acasxval/internal/uav"
)

// nmacRate runs the preset n times under cfg and returns the NMAC fraction.
func nmacRate(b *testing.B, p EncounterParams, mk func() (System, System), cfg RunConfig, n int, seed uint64) float64 {
	b.Helper()
	nmacs := 0
	own, intr := mk()
	for k := 0; k < n; k++ {
		res, err := RunEncounter(p, own, intr, cfg, stats.DeriveSeed(seed, k))
		if err != nil {
			b.Fatal(err)
		}
		if res.NMAC {
			nmacs++
		}
	}
	return float64(nmacs) / float64(n)
}

// BenchmarkAblationCoordination compares coordinated vs uncoordinated
// resolution on the symmetric head-on, where uncoordinated same-sense
// choices are the classic hazard.
func BenchmarkAblationCoordination(b *testing.B) {
	table := benchLogicTable(b)
	mk := func() (System, System) { return sim.NewACASXU(table), sim.NewACASXU(table) }
	p := PresetHeadOn()
	const n = 60
	var with, without float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultRunConfig()
		cfg.Coordination = true
		with = nmacRate(b, p, mk, cfg, n, uint64(i)*2+1)
		cfg.Coordination = false
		without = nmacRate(b, p, mk, cfg, n, uint64(i)*2+1)
	}
	b.ReportMetric(with, "NMAC-coordinated")
	b.ReportMetric(without, "NMAC-uncoordinated")
}

// BenchmarkAblationTracker compares raw noisy ADS-B against alpha-beta
// filtered tracks under heavy sensor noise.
func BenchmarkAblationTracker(b *testing.B) {
	table := benchLogicTable(b)
	mk := func() (System, System) { return sim.NewACASXU(table), sim.NewACASXU(table) }
	p := PresetHeadOn()
	const n = 60
	var filtered, raw float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultRunConfig()
		cfg.Sensor.HorizontalPosSigma = 30
		cfg.Sensor.VelSigma = 2
		cfg.UseTracker = true
		filtered = nmacRate(b, p, mk, cfg, n, uint64(i)*2+1)
		cfg.UseTracker = false
		raw = nmacRate(b, p, mk, cfg, n, uint64(i)*2+1)
	}
	b.ReportMetric(filtered, "NMAC-filtered")
	b.ReportMetric(raw, "NMAC-raw")
}

// BenchmarkAblationSensorNoise sweeps the ADS-B position-noise level and
// reports the head-on NMAC rate at each.
func BenchmarkAblationSensorNoise(b *testing.B) {
	table := benchLogicTable(b)
	mk := func() (System, System) { return sim.NewACASXU(table), sim.NewACASXU(table) }
	p := PresetHeadOn()
	const n = 50
	var r0, r10, r50 float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultRunConfig()
		cfg.Sensor = uav.SensorModel{}
		r0 = nmacRate(b, p, mk, cfg, n, uint64(i)+1)
		cfg.Sensor = uav.DefaultSensorModel()
		r10 = nmacRate(b, p, mk, cfg, n, uint64(i)+1)
		cfg.Sensor.HorizontalPosSigma = 50
		cfg.Sensor.VerticalPosSigma = 20
		cfg.Sensor.VelSigma = 3
		r50 = nmacRate(b, p, mk, cfg, n, uint64(i)+1)
	}
	b.ReportMetric(r0, "NMAC-sigma0")
	b.ReportMetric(r10, "NMAC-sigma10")
	b.ReportMetric(r50, "NMAC-sigma50")
}

// BenchmarkAblationResponseDelay sweeps the maneuver response delay.
func BenchmarkAblationResponseDelay(b *testing.B) {
	table := benchLogicTable(b)
	mk := func() (System, System) { return sim.NewACASXU(table), sim.NewACASXU(table) }
	p := PresetHeadOn()
	const n = 50
	var d0, d1, d5 float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultRunConfig()
		cfg.OwnUAV.ResponseDelay = 0
		cfg.IntruderUAV.ResponseDelay = 0
		d0 = nmacRate(b, p, mk, cfg, n, uint64(i)+1)
		cfg.OwnUAV.ResponseDelay = 1
		cfg.IntruderUAV.ResponseDelay = 1
		d1 = nmacRate(b, p, mk, cfg, n, uint64(i)+1)
		cfg.OwnUAV.ResponseDelay = 5
		cfg.IntruderUAV.ResponseDelay = 5
		d5 = nmacRate(b, p, mk, cfg, n, uint64(i)+1)
	}
	b.ReportMetric(d0, "NMAC-delay0s")
	b.ReportMetric(d1, "NMAC-delay1s")
	b.ReportMetric(d5, "NMAC-delay5s")
}

// BenchmarkAblationLookupMode compares interpolated against
// nearest-neighbour table lookup (section IV lists discretization +
// interpolation as an inaccuracy source). The nearest-neighbour choice is
// the interpolated lookup at the closest grid vertex and integer tau,
// where interpolation returns the vertex values exactly.
func BenchmarkAblationLookupMode(b *testing.B) {
	table := benchLogicTable(b)
	g := table.Config().Grid
	hAxis := interp.Uniform(-g.HMax, g.HMax, g.NumH)
	rateAxis := interp.Uniform(-g.RateMax, g.RateMax, g.NumRate)
	var interpQ, nearestQ float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Off-grid query in the alerting region.
		const tau, h, dh0, dh1 = 11.3, 37.5, 1.2, -2.7
		ai, _ := table.BestAdvisory(tau, h, dh0, dh1, acasx.COC, acasx.SenseMask{})
		an, _ := table.BestAdvisory(math.Round(tau), nearestCut(hAxis, h),
			nearestCut(rateAxis, dh0), nearestCut(rateAxis, dh1), acasx.COC, acasx.SenseMask{})
		interpQ = table.QValue(tau, h, dh0, dh1, acasx.COC, ai)
		nearestQ = table.QValue(tau, h, dh0, dh1, acasx.COC, an)
	}
	b.ReportMetric(interpQ, "Q-of-interp-choice")
	b.ReportMetric(nearestQ, "Q-of-nearest-choice")
}

// nearestCut returns the cut point of axis closest to x.
func nearestCut(axis []float64, x float64) float64 {
	best := axis[0]
	for _, c := range axis[1:] {
		if math.Abs(c-x) < math.Abs(best-x) {
			best = c
		}
	}
	return best
}

// BenchmarkAblationGAOperators compares crossover operators on the search
// problem at small scale: final-generation mean fitness per operator.
func BenchmarkAblationGAOperators(b *testing.B) {
	table := benchLogicTable(b)
	factory := func() (sim.System, sim.System) {
		return sim.NewACASXU(table), sim.NewACASXU(table)
	}
	run := func(op ga.CrossoverOp, seed uint64) float64 {
		spec := DefaultSearchSpec()
		spec.Islands = 1
		spec.GA.PopulationSize = 16
		spec.GA.Generations = 3
		spec.GA.Crossover = op
		spec.Seed = seed
		spec.Fitness.SimsPerEncounter = 6
		res, err := RunSearchContext(context.Background(), spec, factory, SearchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		history := res.Islands[0]
		return history[len(history)-1].Mean
	}
	var onePoint, uniform, blend float64
	for i := 0; i < b.N; i++ {
		seed := uint64(i + 1)
		onePoint = run(ga.OnePoint, seed)
		uniform = run(ga.UniformX, seed)
		blend = run(ga.Blend, seed)
	}
	b.ReportMetric(onePoint, "final-mean-onepoint")
	b.ReportMetric(uniform, "final-mean-uniform")
	b.ReportMetric(blend, "final-mean-blend")
}

// BenchmarkAblationBeliefExecutive compares the point-estimate executive
// against the QMDP belief-weighted executive under heavy sensor noise
// (the paper's section IV POMDP question).
func BenchmarkAblationBeliefExecutive(b *testing.B) {
	table := benchLogicTable(b)
	mkPoint := func() (System, System) { return sim.NewACASXU(table), sim.NewACASXU(table) }
	mkBelief := func() (System, System) {
		a, err := sim.NewACASXUBelief(table, acasx.DefaultBeliefSigmas())
		if err != nil {
			b.Fatal(err)
		}
		c, err := sim.NewACASXUBelief(table, acasx.DefaultBeliefSigmas())
		if err != nil {
			b.Fatal(err)
		}
		return a, c
	}
	p := PresetHeadOn()
	const n = 50
	var point, belief float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultRunConfig()
		cfg.Sensor.HorizontalPosSigma = 30
		cfg.Sensor.VerticalPosSigma = 12
		cfg.Sensor.VelSigma = 2
		point = nmacRate(b, p, mkPoint, cfg, n, uint64(i)+1)
		belief = nmacRate(b, p, mkBelief, cfg, n, uint64(i)+1)
	}
	b.ReportMetric(point, "NMAC-point-executive")
	b.ReportMetric(belief, "NMAC-belief-executive")
}

// BenchmarkAblationModelRevision measures the tail-approach NMAC rate of
// the original system against the revised model (DMOD 500 m + vertical-tau
// fallback) — the paper's improvement loop closed (examples/modelrevision).
func BenchmarkAblationModelRevision(b *testing.B) {
	original := benchLogicTable(b)
	revCfg := DefaultTableConfig()
	revCfg.Workers = 8
	revCfg.DMOD = 500
	revCfg.UseVerticalTau = true
	revised, err := BuildLogicTable(revCfg)
	if err != nil {
		b.Fatal(err)
	}
	p := PresetTailApproach()
	const n = 50
	var orig, rev float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultRunConfig()
		orig = nmacRate(b, p, func() (System, System) {
			return sim.NewACASXU(original), sim.NewACASXU(original)
		}, cfg, n, uint64(i)+1)
		rev = nmacRate(b, p, func() (System, System) {
			return sim.NewACASXU(revised), sim.NewACASXU(revised)
		}, cfg, n, uint64(i)+1)
	}
	b.ReportMetric(orig, "tail-NMAC-original")
	b.ReportMetric(rev, "tail-NMAC-revised")
}

// BenchmarkAblationFitnessSims sweeps K (simulations per encounter): the
// variance-vs-cost trade of the paper's 100-run averaging.
func BenchmarkAblationFitnessSims(b *testing.B) {
	table := benchLogicTable(b)
	factory := func() (sim.System, sim.System) {
		return sim.NewACASXU(table), sim.NewACASXU(table)
	}
	model := PointEncounterModel(PresetTailApproach())
	gain := DefaultSearchSpec().Fitness.CollisionGain
	measure := func(k int, seed uint64) float64 {
		cfg := DefaultMonteCarloConfig()
		cfg.Samples = k
		cfg.Seed = seed
		est, err := EstimateRiskContext(context.Background(), model, factory, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return gain * est.MeanInverseSeparation
	}
	// Spread of the fitness estimate across seeds for K=5 vs K=50.
	var sd5, sd50 float64
	for i := 0; i < b.N; i++ {
		var a5, a50 stats.Accumulator
		for s := 0; s < 8; s++ {
			a5.Add(measure(5, uint64(i*100+s)))
			a50.Add(measure(50, uint64(i*100+s)))
		}
		sd5 = a5.StdDev()
		sd50 = a50.StdDev()
	}
	b.ReportMetric(sd5, "fitness-sd-K5")
	b.ReportMetric(sd50, "fitness-sd-K50")
}
