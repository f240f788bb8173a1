package montecarlo

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"acasxval/internal/encounter"
	"acasxval/internal/sim"
	"acasxval/internal/stats"
)

// SystemFactory builds fresh collision avoidance systems for an
// evaluation. The evaluator calls the factory once per worker (possibly
// concurrently) and reuses the returned pair across every episode that
// worker runs, Reset before each one — so a System's Reset must restore
// the complete pre-encounter state, or episodes would leak into each other
// and break the evaluator's worker-count invariance. For K-intruder
// evaluations the factory is called K times per worker (the first call
// supplies the ownship and intruder 1, each further call one more
// intruder), so every aircraft owns an independent system instance.
type SystemFactory func() (own, intruder sim.System)

// Unequipped is the no-avoidance baseline factory.
func Unequipped() (own, intruder sim.System) {
	return sim.NoSystem{}, sim.NoSystem{}
}

// Config parameterizes a Monte-Carlo estimation run.
type Config struct {
	// Samples is the number of sampled encounters (each simulated once;
	// the stochastic dynamics are part of the sampled space).
	Samples int
	// Run configures each simulation.
	Run sim.RunConfig
	// Seed makes the estimate reproducible.
	Seed uint64
	// Parallelism bounds concurrent simulations (0 = NumCPU).
	Parallelism int
	// Confidence is the CI level for reported intervals (default 0.95).
	Confidence float64
}

// DefaultConfig returns a 10000-sample estimation setup.
func DefaultConfig() Config {
	return Config{
		Samples:    10000,
		Run:        sim.DefaultRunConfig(),
		Seed:       1,
		Confidence: 0.95,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Samples < 1 {
		return fmt.Errorf("montecarlo: Samples %d < 1", c.Samples)
	}
	if c.Confidence != 0 && (c.Confidence <= 0 || c.Confidence >= 1) {
		return fmt.Errorf("montecarlo: Confidence %v outside (0, 1)", c.Confidence)
	}
	return c.Run.Validate()
}

// Estimate is the result of a Monte-Carlo evaluation of one system
// configuration.
type Estimate struct {
	// Samples is the number of simulated encounters.
	Samples int
	// NMACs counts near mid-air collisions.
	NMACs int
	// PNMAC is the estimated NMAC probability with its Wilson interval.
	PNMAC   float64
	PNMACCI stats.Interval
	// AlertRate is the fraction of encounters with at least one alert.
	AlertRate float64
	// MeanMinSeparation averages the per-run minimum separation, metres.
	MeanMinSeparation float64
	// MeanAlerts averages the number of distinct alerts per encounter (a
	// false-alarm-rate proxy: most sampled conflicts are resolvable with
	// one advisory; repeated alerts indicate churn).
	MeanAlerts float64
	// MeanInverseSeparation averages 1/(1 + d_k) over the runs, with d_k
	// forced to zero when run k ends in an NMAC — the paper's search
	// fitness divided by its collision gain. Exposing it here lets the
	// adversarial search engine score genomes straight off the Monte-Carlo
	// harness (fitness = gain * MeanInverseSeparation).
	MeanInverseSeparation float64
	// ESS is the effective sample size behind PNMAC. Brute force reports
	// Samples; importance sampling reports the Kish size (Σw)²/Σw² of the
	// likelihood-ratio weights; splitting reports the brute-force sample
	// count that would match the estimator's variance.
	ESS float64
	// VarianceReduction is the variance-reduction factor versus brute
	// force at the same episode budget: Var_bruteforce / Var_estimator,
	// with Var_bruteforce = p(1-p)/Samples at the estimator's own point
	// estimate. Brute force reports 1; zero when undefined (p estimated
	// as exactly 0 or 1).
	VarianceReduction float64
}

// outcome is the per-simulation record pooled into an Estimate. The
// importance-sampling path additionally carries the episode's
// log-likelihood-ratio; the brute-force path leaves it zero.
type outcome struct {
	nmac    bool
	alerted bool
	alerts  int
	minSep  float64
	logw    float64
	err     error
}

// Scratch holds reusable evaluation state. A caller running many
// evaluations back to back (the campaign engine runs one per cell, the
// island search one per genome) can hold one Scratch per worker and avoid
// re-allocating the per-sample outcome buffer and the per-worker simulation
// worlds every call. A Scratch must not be shared between concurrent
// evaluations; the zero value is ready to use.
type Scratch struct {
	outcomes []outcome
	// worlds persist across evaluations so the campaign and search steady
	// states re-wire rather than rebuild them.
	worlds []*world
}

// grow returns a zeroed outcome buffer of length n backed by the scratch's
// storage where capacity allows.
func (s *Scratch) grow(n int) []outcome {
	if cap(s.outcomes) < n {
		s.outcomes = make([]outcome, n)
	}
	s.outcomes = s.outcomes[:n]
	clear(s.outcomes)
	return s.outcomes
}

// dynamicsSalt decorrelates an episode's simulation (dynamics + sensor)
// seed from its encounter-sampling seed.
const dynamicsSalt = 0xABCD

// world is one worker's fully-wired, reusable episode engine: a simulation
// runner (the aircraft fleet, trackers, monitors, clock, RNG streams), one
// system per aircraft under test, a reseedable encounter-sampling RNG and
// the parameter draw buffers. Once prepared, simulating an episode
// performs no allocation.
type world struct {
	runner  *sim.Runner
	systems []sim.System
	rng     stats.ReseedableRNG
	buf     [encounter.NumParams]float64
	// params is the per-episode encounter scratch: one entry per intruder,
	// refilled by every sample.
	params []encounter.Params
	// raw and chain are the rare-event estimators' flat K*NumParams draw
	// scratches: raw holds the current proposal draw, chain a splitting
	// chain's accepted state.
	raw   []float64
	chain []float64
}

// prepare (re)wires the world for one evaluation over k-intruder
// encounters. The runner is rebuilt only when the run configuration
// changed; the systems are always taken fresh from the factory, since
// factories may close over per-call state.
func (w *world) prepare(run sim.RunConfig, factory SystemFactory, k int) error {
	if w.runner == nil {
		r, err := sim.NewRunner(run)
		if err != nil {
			return err
		}
		w.runner = r
	} else if err := w.runner.Reconfigure(run); err != nil {
		return err
	}
	w.systems = sim.AppendSystemsFromPair(w.systems[:0], factory, k)
	if cap(w.params) < k {
		w.params = make([]encounter.Params, k)
	}
	w.params = w.params[:k]
	dim := k * encounter.NumParams
	if cap(w.raw) < dim {
		w.raw = make([]float64, dim)
		w.chain = make([]float64, dim)
	}
	w.raw = w.raw[:dim]
	w.chain = w.chain[:dim]
	return nil
}

// episode simulates encounter m under dynamics seed seed. It is the
// package's one call into the simulator: each estimator draws m and the
// seed its own way and pools the outcomes its own way.
func (w *world) episode(m encounter.MultiParams, seed uint64) outcome {
	res, err := w.runner.RunMulti(m, w.systems, seed)
	if err != nil {
		return outcome{err: err}
	}
	return outcome{
		nmac:    res.NMAC,
		alerted: res.Alerted(),
		alerts:  res.TotalAlerts(),
		minSep:  res.MinSeparation,
	}
}

// episodeBatch is how many consecutive episodes a worker claims per
// counter fetch: large enough to keep contention on the shared counter
// negligible, small enough to balance uneven episode durations.
const episodeBatch = 8

// setup is the preamble every estimator shares. It validates the model,
// the factory and the config and defaults cfg.Confidence. It returns the
// model with its mixture caches precomputed once per call (never per
// draw), one wired world per effective worker and a zeroed outcome buffer
// for n episodes, both taken from scratch (nil means a fresh one).
//
// Worlds are prepared serially up front: world growth must not race, and a
// mis-wired configuration should fail before any episode runs. Workers
// beyond the batch count could never claim work, so they are clamped away
// (results are worker-count invariant, so clamping is free).
func setup(model MultiEncounterModel, factory SystemFactory, cfg *Config, scratch *Scratch, n int) (MultiEncounterModel, []*world, []outcome, error) {
	if err := model.Validate(); err != nil {
		return model, nil, nil, err
	}
	if factory == nil {
		return model, nil, nil, fmt.Errorf("montecarlo: nil system factory")
	}
	if err := cfg.Validate(); err != nil {
		return model, nil, nil, err
	}
	if cfg.Confidence == 0 {
		cfg.Confidence = 0.95
	}
	if scratch == nil {
		scratch = &Scratch{}
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = max(1, min(workers, (n+episodeBatch-1)/episodeBatch))
	for len(scratch.worlds) < workers {
		scratch.worlds = append(scratch.worlds, &world{})
	}
	worlds := scratch.worlds[:workers]
	for _, w := range worlds {
		if err := w.prepare(cfg.Run, factory, model.NumIntruders()); err != nil {
			return model, nil, nil, err
		}
	}
	return model.Prepared(), worlds, scratch.grow(n), nil
}

// runEpisodes distributes n independent work items over the prepared
// worlds, calling run(world, i) once per item. Item identity is the index i,
// never the claiming order, so the results are bit-identical for any number
// of worlds. A single world runs the serial fast path: no goroutines or
// counter traffic — the campaign pool pins saturated sweeps' cells to one
// worker each, so this is their steady state.
//
// A cancelled ctx stops the loops between episodes and runEpisodes returns
// ctx.Err(): the rest of the outcome buffer is untouched, and pooling it
// would silently average in zeros. The per-episode ctx.Err() call is
// allocation-free on both the background context and cancel contexts, so
// the zero-alloc steady state holds.
//
// A panic in run reaches the caller at any worker count: a worker that
// panics stops the others claiming new batches, and runEpisodes re-panics
// with the first panic's value once every worker has returned, so a
// recover above it (the validation server's shard supervisor) sees it.
func runEpisodes(ctx context.Context, worlds []*world, n int, run func(w *world, i int)) error {
	if len(worlds) == 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			run(worlds[0], i)
		}
		return ctx.Err()
	}
	// Items are claimed in batches off a shared atomic counter; the slot
	// index carries the item's identity, so scheduling cannot perturb the
	// result.
	var next atomic.Int64
	var wg sync.WaitGroup
	var crash sync.Once
	var crashed any
	wg.Add(len(worlds))
	for _, w := range worlds {
		go func(w *world) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					crash.Do(func() { crashed = r })
					next.Store(int64(n)) // no worker claims another batch
				}
			}()
			for ctx.Err() == nil {
				start := int(next.Add(episodeBatch)) - episodeBatch
				if start >= n {
					return
				}
				for i := start; i < min(start+episodeBatch, n) && ctx.Err() == nil; i++ {
					run(w, i)
				}
			}
		}(w)
	}
	wg.Wait()
	if crashed != nil {
		panic(crashed)
	}
	return ctx.Err()
}

// EvaluateMultiWithScratchContext is the brute-force Monte-Carlo kernel: it
// estimates event probabilities for one system configuration against a
// K-intruder encounter model, every episode sampling one ownship plus K
// intruders and simulating all pairwise conflicts in one closed-loop world.
// A pairwise model is the K=1 case, MultiEncounterModel{Intruders:
// []EncounterModel{model}}, and samples and simulates the exact classic
// stream.
//
// Episodes are distributed over cfg.Parallelism reusable worlds; episode
// i's encounter and simulation RNG streams derive counter-style from
// (cfg.Seed, i), so the estimate is deterministic for a given seed and
// bit-identical for any worker count. scratch (may be nil) supplies the
// per-sample outcome buffer and the per-worker simulation worlds; at a
// steady intruder count the per-episode steady state allocates nothing.
//
// A cancelled ctx stops the episode loop between episodes and returns
// ctx.Err() with no estimate. Cancellation never corrupts state — episodes
// are idempotent functions of (cfg.Seed, index), so re-running the same
// evaluation later reproduces the identical result.
func EvaluateMultiWithScratchContext(ctx context.Context, model MultiEncounterModel, factory SystemFactory, cfg Config, scratch *Scratch) (*Estimate, error) {
	model, worlds, outcomes, err := setup(model, factory, &cfg, scratch, cfg.Samples)
	if err != nil {
		return nil, err
	}
	if err := runEpisodes(ctx, worlds, cfg.Samples, func(w *world, i int) {
		rng := w.rng.SeedChild(cfg.Seed, i)
		outcomes[i] = w.episode(model.SampleInto(rng, &w.buf, w.params), stats.DeriveSeed(cfg.Seed^dynamicsSalt, i))
	}); err != nil {
		return nil, err
	}
	// Brute force is its own variance baseline.
	est := &Estimate{Samples: cfg.Samples, ESS: float64(cfg.Samples), VarianceReduction: 1}
	if est.NMACs, err = poolMeans(outcomes, est); err != nil {
		return nil, err
	}
	est.PNMAC = float64(est.NMACs) / float64(cfg.Samples)
	est.PNMACCI = stats.WilsonCI(est.NMACs, cfg.Samples, cfg.Confidence)
	return est, nil
}

// poolMeans pools iid, unweighted outcomes into est's secondary metrics
// and returns their NMAC count, or the first episode error. An NMAC scores
// the full collision gain in MeanInverseSeparation: d_k = 0.
func poolMeans(outcomes []outcome, est *Estimate) (int, error) {
	var sep, alerts, invSep stats.Accumulator
	nmacs, alerted := 0, 0
	for i := range outcomes {
		o := &outcomes[i]
		if o.err != nil {
			return 0, o.err
		}
		d := o.minSep
		if o.nmac {
			nmacs++
			d = 0
		}
		if o.alerted {
			alerted++
		}
		sep.Add(o.minSep)
		alerts.Add(float64(o.alerts))
		invSep.Add(1 / (1 + d))
	}
	est.AlertRate = float64(alerted) / float64(len(outcomes))
	est.MeanMinSeparation = sep.Mean()
	est.MeanAlerts = alerts.Mean()
	est.MeanInverseSeparation = invSep.Mean()
	return nmacs, nil
}

// RiskRatio compares an equipped estimate against an unequipped baseline:
// P(NMAC | equipped) / P(NMAC | unequipped). The figure of merit of the
// ACAS literature; well below 1 means the system helps.
func RiskRatio(equipped, unequipped *Estimate) (float64, error) {
	if unequipped.PNMAC == 0 {
		return 0, fmt.Errorf("montecarlo: baseline NMAC probability is zero; ratio undefined")
	}
	return equipped.PNMAC / unequipped.PNMAC, nil
}
