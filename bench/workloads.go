package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"acasxval"
	"acasxval/internal/acasx"
	"acasxval/internal/encounter"
	"acasxval/internal/montecarlo"
	"acasxval/internal/sim"
	"acasxval/internal/stats"
)

// sizes fixes how much work one job of each workload does. full is the
// benchmark; the tests run the same code at smoke size.
type sizes struct {
	table           acasx.Config
	setupReps       int // timed set-ups per run; setup_s is their median
	minReps         int // measured jobs per phase, at least
	mcEquipped      int // samples per equipped estimate
	mcUnequipped    int // samples per unequipped estimate
	searchIslands   int
	searchPop       int // individuals per island
	searchGens      int
	searchSims      int // simulations per encounter evaluation
	serveSamples    int // samples per campaign cell
	serveWindow     int // served jobs per throughput window
	serveChecks     int // every serveChecks-th fresh job is re-run directly
	captureEpisodes int // episodes the layer ladder captures and replays
	spanLimit       int
	calibrations    int // calibration samples at each phase boundary
}

func fullSizes() sizes {
	table := acasxval.DefaultTableConfig()
	table.Workers = runtime.NumCPU()
	return sizes{
		table:           table,
		setupReps:       7,
		minReps:         3,
		mcEquipped:      25000,
		mcUnequipped:    40000,
		searchIslands:   2,
		searchPop:       32,
		searchGens:      4,
		searchSims:      50,
		serveSamples:    25,
		serveWindow:     100,
		serveChecks:     50,
		captureEpisodes: 200,
		spanLimit:       60000,
		calibrations:    8,
	}
}

func smokeSizes() sizes {
	table := acasxval.CoarseTableConfig()
	table.Workers = runtime.NumCPU()
	return sizes{
		table:           table,
		setupReps:       2,
		minReps:         2,
		mcEquipped:      300,
		mcUnequipped:    300,
		searchIslands:   2,
		searchPop:       4,
		searchGens:      2,
		searchSims:      4,
		serveSamples:    3,
		serveWindow:     2,
		serveChecks:     2,
		captureEpisodes: 8,
		spanLimit:       5000,
		calibrations:    1,
	}
}

// digest is a workload's checked output: the numbers every repetition
// must reproduce exactly, and that must match testdata/golden.json at the
// default seed.
type digest struct {
	NMACs         int     `json:"nmacs,omitempty"`
	PNMAC         float64 `json:"pnmac,omitempty"`
	MeanMinSep    float64 `json:"mean_min_sep,omitempty"`
	BestFitness   float64 `json:"best_fitness,omitempty"`
	Evaluations   int     `json:"evaluations,omitempty"`
	ArchiveLen    int     `json:"archive_len,omitempty"`
	ArchiveSHA256 string  `json:"archive_sha256,omitempty"`
	JobSHA256     string  `json:"job_sha256,omitempty"`
}

//go:embed testdata/golden.json
var goldenJSON []byte

// goldenDigests returns the pinned default-seed outputs by workload.
func goldenDigests() (map[string]digest, error) {
	var g map[string]digest
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return g, nil
}

// defaultSeed is the seed testdata/golden.json pins.
const defaultSeed = 1

// env is the state every workload shares: its inputs, the resident logic
// table, a directory for on-disk state, and the failure tally.
type env struct {
	seed  uint64
	size  sizes
	table *acasx.Table
	work  string // scratch directory inside the checkout
	check *checks
	speed *speed
	// rec keeps the traced run's spans and traced the in-situ decide
	// timings of its probed systems; both are nil in an untraced run.
	rec    *recorder
	traced *probes
}

// root starts a job-level span when the phase is traced.
func (e *env) root(name string, traced bool) active {
	if !traced {
		return active{}
	}
	return e.rec.root(name)
}

// checks tallies operations and their failures. A failure is an error, a
// non-2xx response, a job that did not finish done, or an output that
// differs from the reference it must equal.
type checks struct {
	attempted, failed int
	messages          []string
}

func (c *checks) op() { c.attempted++ }

func (c *checks) fail(format string, args ...any) {
	c.failed++
	if len(c.messages) < 20 {
		c.messages = append(c.messages, fmt.Sprintf(format, args...))
	}
}

// same records a failure when got differs from want.
func (c *checks) same(what string, got, want digest) {
	if got != want {
		c.fail("%s: got %+v, want %+v", what, got, want)
	}
}

// window is one throughput sample: work completed over a stretch of wall
// time, and the latencies of the jobs that finished in it.
type window struct {
	seconds  float64
	episodes float64
	units    float64 // encounter evaluations (search) or cells (serve)
	latMS    []float64
}

// measurement is one phase of a run: its windows in order, its wall
// time, and the episodes it simulated (a cached served cell delivers
// episodes without simulating them).
type measurement struct {
	windows   []window
	wall      time.Duration
	simulated float64
}

func (m measurement) latencies() []float64 {
	var out []float64
	for _, w := range m.windows {
		out = append(out, w.latMS...)
	}
	return out
}

// rate summarizes a per-window rate: the median window, its quartiles.
func (m measurement) rate(work func(window) float64) stat {
	xs := make([]float64, 0, len(m.windows))
	for _, w := range m.windows {
		xs = append(xs, work(w)/w.seconds)
	}
	return summarize(xs)
}

// latency reports the p-quantile over every job, with the quartiles of
// the per-window p-quantiles as its spread; n counts the jobs.
func (m measurement) latency(p float64) stat {
	var per []float64
	for _, w := range m.windows {
		per = append(per, quantile(w.latMS, p))
	}
	all := m.latencies()
	s := summarize(per)
	s.Value, s.N = quantile(all, p), len(all)
	return s
}

func (m measurement) episodesPerS() float64 {
	return m.rate(func(w window) float64 { return w.episodes }).Value
}

// repeat runs job back to back for about budget, at least minReps times;
// each job is one window, and an untimed calibration sample follows it.
// It stops early rather than start a job the budget cannot fit.
func (e *env) repeat(budget time.Duration, job func() (episodes, units float64, err error)) (measurement, error) {
	var m measurement
	start := time.Now()
	for {
		m.wall = time.Since(start)
		if n := len(m.windows); n >= e.size.minReps && (m.wall >= budget || m.wall+m.wall/time.Duration(n) > budget) {
			return m, nil
		}
		t0 := time.Now()
		episodes, units, err := job()
		if err != nil {
			return m, err
		}
		d := time.Since(t0)
		e.speed.sample(1)
		m.simulated += episodes
		m.windows = append(m.windows, window{seconds: d.Seconds(), episodes: episodes, units: units, latMS: []float64{float64(d) / 1e6}})
	}
}

// workload is one named traffic mix.
type workload interface {
	// setup builds the workload's resident state on top of the table;
	// the benchmark times it with the table build, several times, and
	// keeps the last instance.
	setup(e *env) error
	// warmup runs one untimed job and keeps its outputs as the reference
	// every later job must reproduce.
	warmup(ctx context.Context) (digest, error)
	// measure runs the workload closed-loop for about budget. Traced runs
	// go through probed systems and record spans.
	measure(ctx context.Context, budget time.Duration, traced bool) (measurement, error)
	// source describes the workload's episodes for the layer ladder.
	source() episodeSource
	// layers measures the rungs only this workload exercises, after a
	// traced measurement.
	layers(ctx context.Context, out map[string]stat) error
	close() error
}

// workloads are the benchmark's traffic mixes, in the order the README
// gives their reasons.
var workloads = []struct {
	name string
	why  string
	make func() workload
}{
	{"mc-equipped", "section-IV Monte-Carlo estimate with ACAS XU on both aircraft: the decide, table and interpolation layers do their most work",
		func() workload { return &mcWorkload{equipped: true} }},
	{"mc-unequipped", "the same episodes with no avoidance system: dynamics, surveillance and monitors with zero decide or table work",
		func() workload { return &mcWorkload{} }},
	{"search-k2-faulted", "island GA search over two-intruder encounters under moderate faults: thousands of small estimates, multi-threat fusion",
		func() workload { return &searchWorkload{} }},
	{"serve-mixed", "caserve over loopback HTTP, two closed-loop clients, fresh jobs that journal and resubmissions that hit the cell cache",
		func() workload { return &serveWorkload{} }},
}

// mcWorkload is one Monte-Carlo risk estimate over the default encounter
// model, repeated at the same seed.
type mcWorkload struct {
	equipped bool
	e        *env
	factory  acasxval.SystemFactory
	want     digest
}

func (w *mcWorkload) setup(e *env) error {
	w.e = e
	spec, ctx := acasxval.SystemSpec{Name: "none"}, acasxval.SystemContext{}
	if w.equipped {
		spec, ctx = acasxval.SystemSpec{Name: "acasx"}, acasxval.SystemContext{Table: e.table}
	}
	f, err := acasxval.NewSystemFactory(ctx, spec)
	if err != nil {
		return err
	}
	w.factory = f
	return nil
}

func (w *mcWorkload) samples() int {
	if w.equipped {
		return w.e.size.mcEquipped
	}
	return w.e.size.mcUnequipped
}

func (w *mcWorkload) estimate(ctx context.Context, factory acasxval.SystemFactory) (digest, error) {
	cfg := acasxval.DefaultMonteCarloConfig()
	cfg.Samples = w.samples()
	cfg.Seed = w.e.seed
	w.e.check.op()
	est, err := acasxval.EstimateRiskContext(ctx, acasxval.DefaultEncounterModel(), factory, cfg)
	if err != nil {
		w.e.check.fail("estimate: %v", err)
		return digest{}, err
	}
	return digest{NMACs: est.NMACs, PNMAC: est.PNMAC, MeanMinSep: est.MeanMinSeparation}, nil
}

func (w *mcWorkload) warmup(ctx context.Context) (digest, error) {
	d, err := w.estimate(ctx, w.factory)
	w.want = d
	return d, err
}

func (w *mcWorkload) measure(ctx context.Context, budget time.Duration, traced bool) (measurement, error) {
	factory := w.factory
	if traced {
		factory = w.e.traced.wrap(w.factory)
	}
	n := 0
	return w.e.repeat(budget, func() (float64, float64, error) {
		n++
		job := w.e.root("job", traced)
		d, err := w.estimate(ctx, factory)
		job.end()
		if err != nil {
			return 0, 0, err
		}
		w.e.check.same(fmt.Sprintf("estimate %d", n), d, w.want)
		return float64(w.samples()), 0, nil
	})
}

func (w *mcWorkload) source() episodeSource {
	model := montecarlo.MultiEncounterModel{Intruders: []montecarlo.EncounterModel{montecarlo.DefaultEncounterModel()}}.Prepared()
	return episodeSource{
		run:         sim.DefaultRunConfig(),
		factories:   []func() (sim.System, sim.System){w.factory},
		equipped:    []bool{w.equipped},
		model:       model,
		parallelism: 0,
		draw: func(i int) (encounter.MultiParams, int) {
			return sampleModel(&model, w.e.seed, i), 0
		},
		seed: w.e.seed,
	}
}

func (w *mcWorkload) layers(context.Context, map[string]stat) error { return nil }

func (w *mcWorkload) close() error { return nil }

// sampleModel draws episode i's encounter the way the Monte-Carlo
// evaluator does, into fresh storage.
func sampleModel(model *montecarlo.MultiEncounterModel, seed uint64, i int) encounter.MultiParams {
	var rr stats.ReseedableRNG
	var buf [encounter.NumParams]float64
	dst := make([]encounter.Params, model.NumIntruders())
	return model.SampleInto(rr.SeedChild(seed, i), &buf, dst)
}
