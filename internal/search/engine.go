package search

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"acasxval/internal/core"
	"acasxval/internal/encounter"
	"acasxval/internal/fault"
	"acasxval/internal/ga"
	"acasxval/internal/montecarlo"
	"acasxval/internal/stats"
)

// Seed salts decorrelating the engine's derived random streams: island
// population initialization and per-generation breeding draw from different
// streams than the per-individual evaluation seeds.
const (
	initSalt  = 0x15A1D5EEDB00
	breedSalt = 0xB1EEDCAFE0
)

// IslandStats is one island's per-generation progress report.
type IslandStats struct {
	// Island identifies the reporting island.
	Island int
	// Stats are the island's generation statistics.
	Stats ga.GenerationStats
	// Evaluations are the island's fresh evaluations of this generation in
	// index order (the Fig. 6 points). Elites and migrants carried over
	// without a new simulation are not repeated, so the reports of a fresh
	// run append to a log of exactly Result.NumEvaluations entries.
	Evaluations []ga.Evaluation
}

// Observer receives per-generation progress, islands in order. It runs on
// the coordinator goroutine between generations; keep it fast.
type Observer func(IslandStats)

// Options control one Run invocation (everything that is not part of the
// reproducible search definition).
type Options struct {
	// CheckpointPath, when non-empty, is where the engine writes its
	// state after every completed generation (atomically: temp file +
	// rename).
	CheckpointPath string
	// Resume loads CheckpointPath and continues the search from it
	// instead of initializing fresh populations. The checkpoint must have
	// been written by a run of the same spec.
	Resume bool
	// StopAfter, when positive, halts the run once that many generations
	// have completed (and, if CheckpointPath is set, checkpointed). It
	// simulates a killed run for resume tests and lets callers slice a
	// long search into sessions.
	StopAfter int
	// Observer receives per-generation progress (may be nil).
	Observer Observer
	// EpisodeWorkers is the per-evaluation episode parallelism: each
	// genome's Monte-Carlo batch fans its episodes over this many workers
	// on top of the island-level parallelism (0 = NumCPU/Islands, at least
	// 1). Estimates are worker-count invariant, so the knob changes
	// wall-clock only — results, checkpoints and archives stay
	// byte-identical for any value, which is why it lives in Options rather
	// than the reproducible Spec.
	EpisodeWorkers int
}

// Best is the fittest encounter a search found.
type Best struct {
	// Params is the decoded one-ownship, K-intruder encounter (K = 1 for
	// the classic pairwise search).
	Params   encounter.MultiParams
	Fitness  float64
	Geometry encounter.Geometry
	// Fault is the co-evolved degradation profile of the best individual
	// (the zero profile unless the spec evolves faults).
	Fault fault.Profile
	// Island and Generation locate the discovery.
	Island     int
	Generation int
}

// Result is the outcome of an island search.
type Result struct {
	// Best is the fittest encounter found across all islands.
	Best Best
	// Islands holds each island's per-generation statistics.
	Islands [][]ga.GenerationStats
	// Archive is the deduplicated danger archive accumulated by the run
	// (including archived encounters restored from a checkpoint).
	Archive *Archive
	// NumEvaluations counts encounter evaluations (each costing
	// Fitness.SimsPerEncounter simulations), including those performed
	// before a checkpoint the run resumed from.
	NumEvaluations int
	// GenerationsRun is how many generations have completed in total.
	GenerationsRun int
	// Resumed reports whether the run continued from a checkpoint.
	Resumed bool
	// Stopped reports whether Options.StopAfter halted the run before the
	// generation budget was exhausted.
	Stopped bool
	// Elapsed is this invocation's wall-clock time.
	Elapsed time.Duration
}

// island is one concurrently evolving population.
type island struct {
	id      int
	seed    uint64
	pop     ga.Population
	history []ga.GenerationStats
	scratch montecarlo.Scratch
}

// engine holds the mutable search state between generations.
type engine struct {
	spec    Spec
	factory montecarlo.SystemFactory
	// bounds spans the full genome (geometry blocks plus, when the spec
	// co-evolves faults, the fault-gene tail); geomLen is the length of
	// the geometry prefix.
	bounds         ga.Bounds
	geomLen        int
	islands        []*island
	archive        *Archive
	nextGen        int
	evals          int
	episodeWorkers int
}

// RunContext executes the island-model search. With opts.Resume it
// continues from opts.CheckpointPath; otherwise it initializes fresh
// populations (injecting spec.SeedGenomes round-robin when present). The
// search is deterministic: identical (spec, resume point) produce identical
// results and archives, regardless of island scheduling. One island is the
// paper's single population GA.
//
// A cancelled ctx halts the search at the next evaluation boundary and
// returns the partial result — every completed generation's statistics,
// archive and best — alongside ctx.Err(), so callers can report progress
// and resume later from the last checkpoint (which only ever records
// completed generations). Callers distinguish interruption (non-nil result
// and error) from failure (nil result).
func RunContext(ctx context.Context, spec Spec, factory montecarlo.SystemFactory, opts Options) (*Result, error) {
	e, err := newEngine(spec, factory, opts.EpisodeWorkers)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	resumed := false
	if opts.Resume {
		if opts.CheckpointPath == "" {
			return nil, fmt.Errorf("search: resume requested without a checkpoint path")
		}
		cp, err := LoadCheckpointFile(opts.CheckpointPath)
		if err != nil {
			return nil, err
		}
		if err := e.restore(cp); err != nil {
			return nil, err
		}
		resumed = true
	} else {
		e.initialize()
	}

	// The stop condition is checked before each step, so resuming at or
	// past the requested stop point halts without evaluating another
	// generation.
	stopped := false
	var interrupted error
	for gen := e.nextGen; gen < spec.GA.Generations; gen++ {
		if opts.StopAfter > 0 && gen >= opts.StopAfter {
			stopped = true
			break
		}
		if err := ctx.Err(); err != nil {
			interrupted = err
			break
		}
		if err := e.step(ctx, gen, opts); err != nil {
			// A cancellation mid-step leaves the engine consistent at the
			// last completed generation: histories, archive and evaluation
			// counts merge only at the post-evaluation barrier, which a
			// cancelled step never reaches.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				interrupted = err
				break
			}
			return nil, err
		}
	}

	res := &Result{
		Islands:        make([][]ga.GenerationStats, len(e.islands)),
		Archive:        e.archive,
		NumEvaluations: e.evals,
		GenerationsRun: e.nextGen,
		Resumed:        resumed,
		Stopped:        stopped,
		Elapsed:        time.Since(start),
	}
	for i, isl := range e.islands {
		res.Islands[i] = isl.history
	}
	if err := res.findBest(spec); err != nil {
		return nil, err
	}
	return res, interrupted
}

// newEngine validates the spec and sizes the genome bounds: K geometry
// blocks, plus the fault-gene tail when the spec co-evolves faults.
func newEngine(spec Spec, factory montecarlo.SystemFactory, episodeWorkers int) (*engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if factory == nil {
		return nil, fmt.Errorf("search: nil system factory")
	}
	lo, hi := spec.Ranges.MultiBounds(spec.NumIntruders())
	// The archive's dedup distance is always over the geometry bounds:
	// entry Params stay geometry-only vectors even when the genome grows
	// a fault-gene tail, so archives from clean and co-evolving searches
	// measure with the same yardstick.
	geomBounds, err := ga.NewBounds(lo, hi)
	if err != nil {
		return nil, err
	}
	bounds := geomBounds
	if spec.EvolveFaults {
		flo, fhi := fault.GeneBounds()
		bounds, err = ga.NewBounds(append(append([]float64(nil), lo...), flo...),
			append(append([]float64(nil), hi...), fhi...))
		if err != nil {
			return nil, err
		}
	}
	// The islands are the primary parallelism; when they cannot fill the
	// hardware, each fitness evaluation additionally fans its episodes over
	// the idle cores (worker-count invariant, so determinism is unaffected).
	if episodeWorkers <= 0 {
		episodeWorkers = max(runtime.NumCPU()/spec.Islands, 1)
	}
	e := &engine{spec: spec, factory: factory, bounds: bounds, geomLen: spec.geomLen(), episodeWorkers: episodeWorkers}
	e.archive = NewArchive(spec.ArchiveThreshold, spec.ArchiveMinDistance, geomBounds)
	return e, nil
}

// initialize builds the generation-0 populations: uniform random genomes
// from each island's derived stream, with spec.SeedGenomes (worst sweep
// cells) injected round-robin into the leading slots.
func (e *engine) initialize() {
	n := e.spec.Islands
	e.islands = make([]*island, n)
	for i := 0; i < n; i++ {
		// Island seeds derive exactly like campaign cell seeds: one
		// DeriveSeed per unit index under the run seed.
		isl := &island{id: i, seed: stats.DeriveSeed(e.spec.Seed, i)}
		rng := stats.NewRNG(isl.seed ^ initSalt)
		isl.pop = make(ga.Population, e.spec.GA.PopulationSize)
		for j := range isl.pop {
			isl.pop[j] = ga.Individual{Genome: e.bounds.Random(rng)}
		}
		e.islands[i] = isl
	}
	for j, g := range e.spec.SeedGenomes {
		isl := e.islands[j%n]
		slot := j / n
		if slot >= len(isl.pop) {
			break
		}
		genome := append([]float64(nil), g...)
		// A pairwise seed in a K-intruder search tiles to K converging
		// copies of itself — the sweep's worst pairwise conflict posed
		// simultaneously by every intruder.
		for len(genome) < e.geomLen {
			genome = append(genome, g...)
		}
		// Geometry-only seeds in a fault-evolving search start at the
		// neutral profile (clean surveillance, zero severity); mutation
		// explores the degradation space from there.
		if len(genome) < e.bounds.Len() {
			genome = append(genome, fault.NeutralGenes()...)
		}
		e.bounds.Clamp(genome)
		isl.pop[slot] = ga.Individual{Genome: genome}
	}
	e.nextGen = 0
}

// step runs one lockstep generation: parallel island evaluation, a
// deterministic barrier (stats, archive, observer), then — unless this was
// the final generation — ring migration, breeding, and checkpointing.
func (e *engine) step(ctx context.Context, gen int, opts Options) error {
	n := len(e.islands)
	outs := make([]islandOutput, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(isl *island) {
			defer wg.Done()
			outs[isl.id] = e.evaluateIsland(ctx, isl, gen, opts.Observer != nil)
		}(e.islands[i])
	}
	wg.Wait()
	for _, out := range outs {
		if out.err != nil {
			return out.err
		}
	}

	// Barrier: merge island results in island order so the archive, the
	// statistics and the observer stream are deterministic regardless of
	// goroutine scheduling.
	for _, isl := range e.islands {
		gs := ga.Summarize(isl.pop, gen)
		isl.history = append(isl.history, gs)
		for _, entry := range outs[isl.id].cands {
			e.archive.Add(entry)
		}
		e.evals += outs[isl.id].evals
		if opts.Observer != nil {
			opts.Observer(IslandStats{Island: isl.id, Stats: gs, Evaluations: outs[isl.id].log})
		}
	}
	e.nextGen = gen + 1
	if e.nextGen < e.spec.GA.Generations {
		if n > 1 && e.spec.MigrationSize > 0 && e.nextGen%e.spec.MigrationInterval == 0 {
			e.migrate()
		}
		gaParams := e.spec.GA
		for _, isl := range e.islands {
			isl.pop = ga.Breed(isl.pop, e.bounds, gaParams, stats.NewChildRNG(isl.seed^breedSalt, gen))
		}
	}
	// The final generation checkpoints too (with NextGeneration equal to
	// the budget), so resuming a completed search returns its result
	// without re-evaluating anything.
	if opts.CheckpointPath != "" {
		if err := SaveCheckpointFile(opts.CheckpointPath, e.snapshot()); err != nil {
			return err
		}
	}
	return nil
}

// islandOutput is one island's evaluation phase, merged at the barrier.
type islandOutput struct {
	// cands are the archive candidates and log the fresh evaluations
	// (recorded only for an observer), both in index order.
	cands []ArchiveEntry
	log   []ga.Evaluation
	evals int
	err   error
}

// evaluateIsland scores the island's unevaluated individuals in index
// order on the island goroutine, each score fanning its Monte-Carlo
// episodes over the engine's episode workers. Per-individual seeds depend
// only on (island seed, generation, index) and estimates are worker-count
// invariant, so results are independent of scheduling at both levels.
func (e *engine) evaluateIsland(ctx context.Context, isl *island, gen int, record bool) islandOutput {
	var out islandOutput
	popSize := e.spec.GA.PopulationSize
	for i := range isl.pop {
		if isl.pop[i].Evaluated {
			continue
		}
		out.evals++
		s, err := e.score(ctx, isl.pop[i].Genome, stats.DeriveSeed(isl.seed, gen*popSize+i), &isl.scratch)
		if err != nil {
			return islandOutput{err: err}
		}
		isl.pop[i].Fitness = s.fitness
		isl.pop[i].Evaluated = true
		if record {
			genome := append([]float64(nil), isl.pop[i].Genome...)
			out.log = append(out.log, ga.Evaluation{Generation: gen, Index: i, Genome: genome, Fitness: s.fitness})
		}
		if s.est != nil && s.fitness >= e.spec.ArchiveThreshold {
			var faultGenes []float64
			if e.spec.EvolveFaults {
				faultGenes = fault.Genes(s.fault)
			}
			out.cands = append(out.cands, ArchiveEntry{
				Fitness:    s.fitness,
				PNMAC:      s.est.PNMAC,
				MeanMinSep: s.est.MeanMinSeparation,
				Geometry:   encounter.ClassifyMulti(s.params).Category.String(),
				Island:     isl.id,
				Generation: gen,
				Index:      i,
				Params:     s.params.Vector(),
				Fault:      faultGenes,
			})
		}
	}
	return out
}

// scored is one genome's evaluation.
type scored struct {
	fitness float64
	// params is the decoded geometry, clamped into the ranges; fault the
	// co-evolved degradation profile (zero unless the spec evolves faults).
	params encounter.MultiParams
	fault  fault.Profile
	// est is the Monte-Carlo estimate behind the fitness, nil when the
	// genome did not decode and scored zero without a simulation.
	est *montecarlo.Estimate
}

// score is the one fitness path of the GA and the random baseline: decode
// the genome, run its Monte-Carlo batch, apply the fault parsimony term. A
// corrupt genome scores zero instead of halting a long search.
func (e *engine) score(ctx context.Context, genome []float64, seed uint64, scratch *montecarlo.Scratch) (scored, error) {
	m, err := encounter.MultiFromVector(genome[:e.geomLen])
	if err != nil {
		return scored{}, nil
	}
	s := scored{params: e.spec.Ranges.ClampMulti(m)}
	fit := e.spec.Fitness
	if e.spec.EvolveFaults {
		// The co-evolved profile replaces any fixed one. Breeding clamps
		// the tail into fault.GeneBounds, whose whole box decodes to valid
		// profiles; a corrupt checkpoint tail scores zero like a corrupt
		// geometry.
		s.fault = fault.FromGenes(genome[e.geomLen:])
		if s.fault.Validate() != nil {
			return scored{}, nil
		}
		fit.Run.Faults = s.fault
	}
	s.fitness, s.est, err = evaluateEncounter(ctx, s.params, seed, fit, e.factory, e.episodeWorkers, scratch)
	if err != nil {
		return scored{}, err
	}
	if e.spec.EvolveFaults {
		// Parsimony: prefer the mildest degradation that still breaks the
		// system.
		s.fitness -= e.spec.FaultPenalty * s.fault.Severity()
	}
	return s, nil
}

// evaluateEncounter scores one encounter through the Monte-Carlo harness:
// the genome's fixed scenario replayed SimsPerEncounter times with
// seed-derived stochastic dynamics and sensor noise, scored by the paper's
// fitness = gain * mean(1 / (1 + d_k)). episodeWorkers is the per-batch
// episode parallelism layered on top of the island goroutines.
func evaluateEncounter(ctx context.Context, m encounter.MultiParams, seed uint64, fit core.FitnessConfig, factory montecarlo.SystemFactory, episodeWorkers int, scratch *montecarlo.Scratch) (float64, *montecarlo.Estimate, error) {
	cfg := montecarlo.Config{
		Samples:     fit.SimsPerEncounter,
		Run:         fit.Run,
		Seed:        seed,
		Parallelism: episodeWorkers,
	}
	est, err := montecarlo.EvaluateMultiWithScratchContext(ctx, montecarlo.MultiPointModel(m), factory, cfg, scratch)
	if err != nil {
		return 0, nil, err
	}
	fitness := fit.CollisionGain * est.MeanInverseSeparation
	if !stats.AllFinite(fitness) {
		fitness = 0
	}
	return fitness, est, nil
}

// migrate clones each island's best MigrationSize individuals onto its ring
// successor, replacing the successor's worst individuals. Donors are
// computed from the pre-migration populations so migration order cannot
// cascade around the ring.
func (e *engine) migrate() {
	n := len(e.islands)
	m := e.spec.MigrationSize
	donors := make([][]ga.Individual, n)
	for i, isl := range e.islands {
		best := rankedIndices(isl.pop, false)
		donors[i] = make([]ga.Individual, 0, m)
		for _, idx := range best[:m] {
			donors[i] = append(donors[i], isl.pop[idx].Clone())
		}
	}
	for i := range e.islands {
		dst := e.islands[(i+1)%n]
		worst := rankedIndices(dst.pop, true)
		for k, ind := range donors[i] {
			dst.pop[worst[k]] = ind
		}
	}
}

// rankedIndices returns population indices ordered by fitness (descending
// for best-first, ascending for worst-first), with the original index as a
// deterministic tie-break.
func rankedIndices(pop ga.Population, worstFirst bool) []int {
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		fa, fb := pop[idx[a]].Fitness, pop[idx[b]].Fitness
		if worstFirst {
			return fa < fb
		}
		return fa > fb
	})
	return idx
}

// findBest scans the per-generation records for the fittest individual.
func (r *Result) findBest(spec Spec) error {
	found := false
	for i, history := range r.Islands {
		for _, gs := range history {
			if gs.Best.Genome == nil {
				continue
			}
			if !found || gs.Best.Fitness > r.Best.Fitness {
				geom := gs.Best.Genome
				var fp fault.Profile
				if spec.EvolveFaults {
					if len(geom) <= fault.GeneCount {
						return fmt.Errorf("search: best genome corrupt: %d genes, want a geometry prefix plus %d fault genes",
							len(geom), fault.GeneCount)
					}
					split := len(geom) - fault.GeneCount
					fp = fault.FromGenes(geom[split:])
					geom = geom[:split]
				}
				m, err := encounter.MultiFromVector(geom)
				if err != nil {
					return fmt.Errorf("search: best genome corrupt: %w", err)
				}
				m = spec.Ranges.ClampMulti(m)
				r.Best = Best{
					Params:     m,
					Fitness:    gs.Best.Fitness,
					Geometry:   encounter.ClassifyMulti(m),
					Fault:      fp,
					Island:     i,
					Generation: gs.Generation,
				}
				found = true
			}
		}
	}
	return nil
}
