package montecarlo

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"acasxval/internal/config"
	"acasxval/internal/encounter"
	"acasxval/internal/fault"
	"acasxval/internal/geom"
	"acasxval/internal/sim"
	"acasxval/internal/stats"
)

var updateRare = flag.Bool("update-rare", false, "rewrite the rare-event golden files")

// hostileModel is the cross-validation fixture: the default airspace model
// with the conflict-only miss-distance clamp opened up, so that an NMAC
// becomes a genuinely rare event (P ≈ 1e-2 unequipped) instead of the
// near-certain outcome of the conflict-geometry default. Feasible for brute
// force, hostile enough that tilting toward small miss distances pays.
func hostileModel() EncounterModel {
	m := DefaultEncounterModel()
	m.HorizontalMissDistance = Uniform{Min: 0, Max: 8000}
	m.VerticalMissDistance = Uniform{Min: -400, Max: 400}
	m.Ranges.HorizontalMissDistance = encounter.Range{Min: 0, Max: 8000}
	m.Ranges.VerticalMissDistance = encounter.Range{Min: -400, Max: 400}
	return m
}

// hostileKernels plays the role of a danger archive for the hostile model:
// genomes that agree on small miss distances (the dimensions that cause
// NMACs) while scattering across the nuisance dimensions, exactly the shape
// an island-search archive converges to. The proposal builder turns the
// per-dimension agreement into danger-directed bumps and leaves the
// scattered dimensions untilted, so they cancel from the likelihood ratio.
// The hmd centers ladder outward to cover the dynamics-diffused NMAC band
// (closing geometries still collide from initial offsets well past the NMAC
// cylinder) and the vmd centers bracket level flight.
func hostileKernels() [][]float64 {
	return [][]float64{
		{28, 5, 25, 60, 1.0, -70, 30, 5.0, -5},
		{54, -5, 35, 350, 2.5, 25, 55, 2.0, 5},
		{48, 3, 22, 800, 4.5, 65, 25, 0.5, -4},
		{30, -4, 38, 1500, 5.8, -20, 50, 3.5, 4},
	}
}

// hostileISSpec is the shared importance-sampling setup over the hostile
// model's archive stand-in.
func hostileISSpec(method string) RareEventSpec {
	s := DefaultRareEventSpec(method)
	s.Kernels = hostileKernels()
	s.Defensive = 0.3
	s.Bandwidth = 0.02
	return s
}

// hostileSplitSpec is the shared splitting setup: a level ladder matched to
// the opened-up miss distances, with enough moves per chain to mix.
func hostileSplitSpec() RareEventSpec {
	s := DefaultRareEventSpec(MethodSplit)
	s.Levels = []float64{800, 400, 160}
	s.Moves = 4
	s.Step = 0.25
	return s
}

// TestRareEventSpecValidate covers the spec's rejection paths. The
// non-finite rows hold Validate to rejecting NaN, which every range
// comparison lets through.
func TestRareEventSpecValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	kernel := func(gene float64) [][]float64 {
		return [][]float64{{28, 5, 25, 60, 1.0, -70, 30, 5.0, gene}}
	}
	for _, tc := range []struct {
		name string
		spec RareEventSpec
	}{
		{"unknown method", RareEventSpec{Method: "tarot"}},
		{"defensive weight > 1", RareEventSpec{Method: MethodIS, Defensive: 1.5}},
		{"increasing levels", RareEventSpec{Method: MethodSplit, Levels: []float64{200, 300}}},
		{"final level below the NMAC diagonal", RareEventSpec{Method: MethodSplit, Levels: []float64{400, 100}}},
		{"negative moves", RareEventSpec{Method: MethodSplit, Moves: -1}},
		{"NaN defensive weight", RareEventSpec{Method: MethodIS, Defensive: nan}},
		{"NaN bandwidth", RareEventSpec{Method: MethodIS, Bandwidth: nan}},
		{"+Inf bandwidth", RareEventSpec{Method: MethodIS, Bandwidth: inf}},
		{"NaN step", RareEventSpec{Method: MethodSplit, Step: nan}},
		{"+Inf step", RareEventSpec{Method: MethodSplit, Step: inf}},
		{"NaN level", RareEventSpec{Method: MethodSplit, Levels: []float64{450, nan}}},
		{"+Inf level", RareEventSpec{Method: MethodSplit, Levels: []float64{inf, 450, 160}}},
		{"NaN kernel gene", RareEventSpec{Method: MethodIS, Kernels: kernel(nan)}},
		{"-Inf kernel gene", RareEventSpec{Method: MethodSNIS, Kernels: kernel(math.Inf(-1))}},
	} {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	for _, m := range Methods() {
		if err := DefaultRareEventSpec(m).Validate(); err != nil {
			t.Errorf("default %s spec rejected: %v", m, err)
		}
	}
	// Every NMAC's 3-D minimum separation lies under the diagonal, so the
	// default ladder must end at or above it.
	if want := math.Hypot(geom.NMACHorizontal, geom.NMACVertical); math.Abs(NMACRadius-want) > 1e-9 {
		t.Errorf("NMACRadius = %v, want %v", NMACRadius, want)
	}
}

// TestBruteForceMethodMatchesEvaluate: the estimator dispatch's bruteforce
// arm (and the empty method) is exactly the brute-force kernel.
func TestBruteForceMethodMatchesEvaluate(t *testing.T) {
	model := DefaultEncounterModel()
	cfg := DefaultConfig()
	cfg.Samples = 40
	cfg.Seed = 11
	want, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"", MethodBruteForce} {
		got, err := EstimateRareMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, cfg, RareEventSpec{Method: method}, nil)
		if err != nil {
			t.Fatalf("method %q: %v", method, err)
		}
		if *got != *want {
			t.Errorf("method %q differs from the brute-force kernel\n got: %+v\nwant: %+v", method, got, want)
		}
	}
	if want.ESS != float64(cfg.Samples) || want.VarianceReduction != 1 {
		t.Errorf("brute force reported ESS %v VRF %v, want %d and 1", want.ESS, want.VarianceReduction, cfg.Samples)
	}
}

// TestISWithoutKernelsMatchesBruteForce: with no kernels the proposal
// degenerates to the target, the weights to exactly 1, and the sampled
// episode stream to the brute-force stream — so P(NMAC) and the NMAC count
// agree bit for bit, and the weighted secondary means agree to float
// round-off (the two paths reduce the identical episode outcomes with
// different summation formulas).
func TestISWithoutKernelsMatchesBruteForce(t *testing.T) {
	model := hostileModel()
	cfg := DefaultConfig()
	cfg.Samples = 300
	cfg.Seed = 4
	brute, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	closeEnough := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
	}
	for _, method := range []string{MethodIS, MethodSNIS} {
		is, err := EstimateRareMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, cfg, RareEventSpec{Method: method}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if is.PNMAC != brute.PNMAC || is.NMACs != brute.NMACs ||
			is.AlertRate != brute.AlertRate ||
			!closeEnough(is.MeanMinSeparation, brute.MeanMinSeparation) ||
			!closeEnough(is.MeanInverseSeparation, brute.MeanInverseSeparation) {
			t.Errorf("%s without kernels: %+v\nbrute: %+v", method, is, brute)
		}
		if is.ESS != float64(cfg.Samples) {
			t.Errorf("%s without kernels: ESS %v, want %d (unit weights)", method, is.ESS, cfg.Samples)
		}
	}
}

// TestRareEventCrossValidation is the headline statistical suite: on a
// hostile-but-feasible preset, importance sampling (plain and
// self-normalized) and multi-level splitting must agree with brute force
// within 3 sigma of the pooled standard error, and plain IS must deliver at
// least a 5x measured variance reduction.
func TestRareEventCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical cross-validation needs thousands of episodes")
	}
	model := hostileModel()
	cfg := DefaultConfig()
	cfg.Samples = 12000
	cfg.Seed = 20260808

	brute, err := EvaluateMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if brute.NMACs < 20 {
		t.Fatalf("hostile preset produced only %d/%d brute-force NMACs; fixture too rare for cross-validation", brute.NMACs, cfg.Samples)
	}
	bruteSE := math.Sqrt(brute.PNMAC * (1 - brute.PNMAC) / float64(cfg.Samples))
	t.Logf("brute force: p=%.5f (%d/%d), se=%.5f", brute.PNMAC, brute.NMACs, cfg.Samples, bruteSE)

	check := func(name string, est *Estimate, se float64) {
		t.Helper()
		pooled := math.Sqrt(bruteSE*bruteSE + se*se)
		diff := math.Abs(est.PNMAC - brute.PNMAC)
		t.Logf("%s: p=%.5f se=%.5f ess=%.0f vrf=%.1f (|Δ|=%.5f vs 3σ=%.5f)",
			name, est.PNMAC, se, est.ESS, est.VarianceReduction, diff, 3*pooled)
		if diff > 3*pooled {
			t.Errorf("%s estimate %.5f disagrees with brute force %.5f beyond 3 sigma (pooled se %.5f)",
				name, est.PNMAC, brute.PNMAC, pooled)
		}
		if est.PNMAC <= 0 {
			t.Errorf("%s estimated zero probability on a preset with %d brute-force NMACs", name, brute.NMACs)
		}
	}
	// Normal-interval half-width back out the standard error for logging
	// and pooling.
	seOf := func(est *Estimate, confidence float64) float64 {
		if est.VarianceReduction > 0 {
			return math.Sqrt(est.PNMAC * (1 - est.PNMAC) / float64(est.Samples) / est.VarianceReduction)
		}
		return est.PNMACCI.Width() / 2
	}

	var cumVRF float64
	for _, method := range []string{MethodIS, MethodSNIS} {
		est, err := EstimateRareMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, cfg, hostileISSpec(method), nil)
		if err != nil {
			t.Fatal(err)
		}
		check(method, est, seOf(est, cfg.Confidence))
		if method == MethodIS {
			cumVRF = est.VarianceReduction
		}
		if est.ESS <= 0 || est.ESS > float64(cfg.Samples) {
			t.Errorf("%s: ESS %v outside (0, %d]", method, est.ESS, cfg.Samples)
		}
	}
	if cumVRF < 5 {
		t.Errorf("plain IS variance-reduction factor %.2f < 5 on the hostile preset", cumVRF)
	}

	splitCfg := cfg
	splitCfg.Samples = 2000
	est, err := EstimateRareMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, splitCfg, hostileSplitSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	check(MethodSplit, est, seOf(est, cfg.Confidence))
	if est.Samples <= splitCfg.Samples {
		t.Errorf("splitting reported %d total episodes, want more than the %d-stage budget", est.Samples, splitCfg.Samples)
	}
}

// TestRareEventWorkerCountInvariance: the rare-event estimators inherit the
// evaluator's contract — bit-identical estimates for any worker count,
// clean and faulted.
func TestRareEventWorkerCountInvariance(t *testing.T) {
	model := hostileModel()
	profile, err := fault.Preset("severe")
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]RareEventSpec{
		"is":    hostileISSpec(MethodIS),
		"snis":  hostileISSpec(MethodSNIS),
		"split": hostileSplitSpec(),
	}
	for name, spec := range specs {
		for _, faulted := range []bool{false, true} {
			label := name
			if faulted {
				label += "/faulted"
			}
			t.Run(label, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Samples = 200
				cfg.Seed = 77
				if faulted {
					cfg.Run.Faults = profile
				}
				var base *Estimate
				for _, workers := range []int{1, 2, 8} {
					cfg.Parallelism = workers
					est, err := EstimateRareMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, cfg, spec, nil)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					if base == nil {
						base = est
						continue
					}
					if *est != *base {
						t.Errorf("workers=%d: estimate differs from workers=1\n got: %+v\nwant: %+v", workers, est, base)
					}
				}
				if base.PNMAC == 0 {
					t.Logf("note: %s invariance fixture estimated zero probability", label)
				}
			})
		}
	}
}

// TestRareEventScratchReuse: rare estimates through a reused scratch (the
// campaign steady state) must match scratch-free ones bit for bit, even
// interleaved with brute-force evaluations.
func TestRareEventScratchReuse(t *testing.T) {
	model := pairwise(hostileModel())
	cfg := DefaultConfig()
	cfg.Samples = 120
	cfg.Seed = 9
	cfg.Parallelism = 2
	scratch := &Scratch{}
	for _, spec := range []RareEventSpec{
		hostileISSpec(MethodIS),
		{Method: MethodBruteForce},
		hostileSplitSpec(),
		hostileISSpec(MethodSNIS),
	} {
		got, err := EstimateRareMultiWithScratchContext(context.Background(), model, Unequipped, cfg, spec, scratch)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EstimateRareMultiWithScratchContext(context.Background(), model, Unequipped, cfg, spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Errorf("%s: scratch-reuse estimate differs\n got: %+v\nwant: %+v", spec.Method, got, want)
		}
	}
}

// cancelAfter is an unequipped system that cancels a context once the
// shared reset counter, bumped by every aircraft's system at the start of
// every episode, reaches after — a cancellation that lands mid-run.
type cancelAfter struct {
	sim.NoSystem
	resets *atomic.Int64
	after  int64
	cancel context.CancelFunc
}

func (s cancelAfter) Reset() {
	if s.resets.Add(1) == s.after {
		s.cancel()
	}
}

// TestEstimatorCancellation holds every estimator to its cancellation
// contract: a cancelled ctx, before or during the run, returns
// context.Canceled and no estimate, and the scratch it ran on then
// reproduces the scratch-free estimate exactly.
func TestEstimatorCancellation(t *testing.T) {
	model := pairwise(hostileModel())
	cfg := DefaultConfig()
	cfg.Samples = 120
	cfg.Seed = 5
	cfg.Parallelism = 2
	for _, spec := range []RareEventSpec{
		{Method: ""},
		{Method: MethodBruteForce},
		hostileISSpec(MethodIS),
		hostileISSpec(MethodSNIS),
		hostileSplitSpec(),
	} {
		want, err := EstimateRareMultiWithScratchContext(context.Background(), model, Unequipped, cfg, spec, nil)
		if err != nil {
			t.Fatalf("method %q: %v", spec.Method, err)
		}
		// after = 1 cancels before the first episode simulates; 2·40 resets
		// are 40 two-aircraft episodes, a third of the way into the run.
		for _, after := range []int64{1, 80} {
			ctx, cancel := context.WithCancel(context.Background())
			var resets atomic.Int64
			factory := func() (sim.System, sim.System) {
				s := cancelAfter{resets: &resets, after: after, cancel: cancel}
				return s, s
			}
			scratch := &Scratch{}
			est, err := EstimateRareMultiWithScratchContext(ctx, model, factory, cfg, spec, scratch)
			cancel()
			if est != nil || !errors.Is(err, context.Canceled) {
				t.Errorf("method %q, cancel after %d resets: got (%v, %v), want (nil, context.Canceled)", spec.Method, after, est, err)
			}
			got, err := EstimateRareMultiWithScratchContext(context.Background(), model, Unequipped, cfg, spec, scratch)
			if err != nil {
				t.Fatalf("method %q: re-run: %v", spec.Method, err)
			}
			if *got != *want {
				t.Errorf("method %q, cancel after %d resets: re-run on the cancelled scratch differs\n got: %+v\nwant: %+v", spec.Method, after, got, want)
			}
		}
	}
}

// TestISZeroSuccessInterval: an IS stream that observes no NMACs must still
// report a nonzero upper bound — the Clopper–Pearson bound on the
// proposal's event rate, scaled by the 1/α weight cap.
func TestISZeroSuccessInterval(t *testing.T) {
	// Push the miss distances far outside the NMAC cylinder so no episode
	// can collide.
	model := hostileModel()
	model.HorizontalMissDistance = Uniform{Min: 1500, Max: 2000}
	model.Ranges.HorizontalMissDistance = encounter.Range{Min: 1500, Max: 2000}
	cfg := DefaultConfig()
	cfg.Samples = 80
	cfg.Seed = 3
	spec := hostileISSpec(MethodIS)
	est, err := EstimateRareMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, cfg, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if est.NMACs != 0 || est.PNMAC != 0 {
		t.Fatalf("fixture produced %d NMACs (p=%v); expected none", est.NMACs, est.PNMAC)
	}
	if est.PNMACCI.Lo != 0 || est.PNMACCI.Hi <= 0 {
		t.Errorf("zero-success IS interval [%v, %v]: want [0, >0]", est.PNMACCI.Lo, est.PNMACCI.Hi)
	}
	if est.PNMACCI.Hi > 1 {
		t.Errorf("zero-success IS upper bound %v > 1", est.PNMACCI.Hi)
	}
}

// TestISWeightsBounded: the defensive mixture bounds every episode weight
// by 1/α, so the Kish effective sample size can never collapse below
// N·α²... and in particular stays positive.
func TestISWeightsBounded(t *testing.T) {
	model := pairwise(hostileModel()).Prepared()
	spec := hostileISSpec(MethodIS)
	q, err := newProposal(model, spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(123)
	raw := make([]float64, encounter.NumParams)
	dst := make([]encounter.Params, 1)
	var buf [encounter.NumParams]float64
	bound := -math.Log(spec.Defensive) + 1e-12
	for i := 0; i < 5000; i++ {
		q.sampleInto(rng, &buf, raw, dst)
		lw := q.logWeight(raw)
		if math.IsNaN(lw) || lw > bound {
			t.Fatalf("draw %d: log weight %v exceeds bound %v", i, lw, -math.Log(spec.Defensive))
		}
	}
}

// TestProposalDensityNormalized: the proposal's per-dimension densities
// must integrate to ~1 (trapezoid check over the support), which holds the
// TruncNormal/Uniform/Mixture logProb implementations to their sampling
// semantics.
func TestProposalDensityNormalized(t *testing.T) {
	dists := []Distribution{
		Uniform{Min: -2, Max: 5},
		TruncNormal{Mean: 1, Sigma: 2, Min: -4, Max: 3},
		TruncNormal{Mean: 10, Sigma: 4, Min: 0, Max: 6}, // mean outside the window
		Mixture{
			Components: []Distribution{
				Uniform{Min: 0, Max: 1},
				TruncNormal{Mean: 0.5, Sigma: 0.2, Min: 0, Max: 1},
			},
			Weights: []float64{1, 3},
		}.Prepared(),
	}
	for i, d := range dists {
		lo, hi := supportBounds(d)
		const steps = 200000
		h := (hi - lo) / steps
		sum := 0.0
		for s := 0; s <= steps; s++ {
			x := lo + float64(s)*h
			w := 1.0
			if s == 0 || s == steps {
				w = 0.5
			}
			sum += w * math.Exp(logProb(d, x))
		}
		if got := sum * h; math.Abs(got-1) > 1e-3 {
			t.Errorf("distribution %d: density integrates to %v, want 1", i, got)
		}
	}
}

// TestRareEventGolden pins one IS, one splitting and one brute-force
// estimate to golden JSONL in testdata/, so any change to the episode
// streams, the weighting or the level bookkeeping is a visible diff. The
// brute-force row runs the pairwise hostile model as the K=1 case of the
// kernel. Regenerate with -update-rare.
func TestRareEventGolden(t *testing.T) {
	model := hostileModel()
	cfg := DefaultConfig()
	cfg.Samples = 400
	cfg.Seed = 42
	type row struct {
		Method string `json:"method"`
		Estimate
	}
	var rows []row
	for _, spec := range []RareEventSpec{hostileISSpec(MethodIS), hostileSplitSpec(), {Method: MethodBruteForce}} {
		est, err := EstimateRareMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, cfg, spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{Method: spec.Method, Estimate: *est})
	}
	var buf []byte
	for _, r := range rows {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	golden := filepath.Join("testdata", "rare_golden.jsonl")
	if *updateRare {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-rare to generate)", err)
	}
	if string(want) != string(buf) {
		t.Errorf("rare-event golden drift\n got: %s\nwant: %s", buf, want)
	}
}

// FuzzRareEventSpecParams round-trips the estimator config codec: any spec
// that decodes from a params file must be finite and must re-encode and
// decode to itself.
func FuzzRareEventSpecParams(f *testing.F) {
	f.Add("estimator.method = is\nestimator.defensive = 0.3\nestimator.bandwidth = 0.02\nestimator.kernel.0 = 1,2,3,4,5,6,7,8,9\n")
	f.Add("estimator.method = split\nestimator.levels = 800,400,160\nestimator.moves = 4\nestimator.step = 0.25\n")
	f.Add("estimator.method = snis\nestimator.level.samples = 500\n")
	f.Add("estimator.method = bruteforce\n")
	f.Add("estimator.method = \n")
	// Non-finite values reach the spec through the codec and must be
	// rejected at decode: a NaN would otherwise break the round trip's
	// DeepEqual and, worse, reach an estimator.
	f.Add("estimator.method = is\nestimator.defensive = NaN\n")
	f.Add("estimator.method = split\nestimator.levels = 450,NaN\n")
	f.Add("estimator.method = split\nestimator.step = NaN\n")
	f.Add("estimator.method = is\nestimator.bandwidth = +Inf\n")
	f.Add("estimator.method = snis\nestimator.kernel.0 = 1,2,3,4,5,6,7,8,+Inf\n")
	f.Fuzz(func(t *testing.T, text string) {
		c, err := config.Parse(text)
		if err != nil {
			return
		}
		spec, err := SpecFromConfig(c, "estimator.")
		if err != nil {
			return
		}
		finite := allFinite(spec.Defensive, spec.Bandwidth, spec.Step) && allFinite(spec.Levels...)
		for _, k := range spec.Kernels {
			finite = finite && allFinite(k...)
		}
		if !finite {
			t.Fatalf("decoded a non-finite spec: %+v", spec)
		}
		out := config.New()
		SpecToConfig(spec, out, "estimator.")
		back, err := SpecFromConfig(out, "estimator.")
		if err != nil {
			t.Fatalf("re-decode failed: %v\nspec: %+v\nencoded: %s", err, spec, out.Dump())
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("codec round trip drifted\n first: %+v\nsecond: %+v\nencoded: %s", spec, back, out.Dump())
		}
	})
}

// BenchmarkRareEventSteadyState measures the per-episode steady state of
// the importance-sampling estimator (b.N is the episode count of a single
// estimate), so allocs/op is allocations per episode and must stay ~0 — the
// likelihood-ratio evaluation reuses the same worlds, RNGs and draw buffers
// as the brute-force engine. The reported variance-reduction factor tracks
// the estimator's statistical payoff alongside its cost.
func BenchmarkRareEventSteadyState(b *testing.B) {
	model := hostileModel()
	cfg := DefaultConfig()
	cfg.Samples = b.N
	cfg.Seed = 1
	cfg.Parallelism = 1
	spec := hostileISSpec(MethodIS)
	scratch := &Scratch{}
	b.ReportAllocs()
	b.ResetTimer()
	est, err := EstimateRareMultiWithScratchContext(context.Background(), pairwise(model), Unequipped, cfg, spec, scratch)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(est.VarianceReduction, "VRF")
	b.ReportMetric(est.PNMAC, "P-NMAC")
}
