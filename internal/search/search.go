// Package search implements the island-model adversarial search engine: a
// parallel, resumable, knowledge-accumulating version of the paper's
// section VII GA-based hunt for encounters where a collision avoidance
// system behaves poorly.
//
// The engine layers three capabilities on the internal/ga primitives:
//
//   - Island-model parallelism: N islands each evolve their own population
//     on a dedicated goroutine (per-island seeds derive from the run seed
//     the same way the campaign engine derives per-cell seeds), exchanging
//     their best individuals via ring migration every K generations.
//     Fitness evaluation reuses montecarlo.EvaluateMultiWithScratchContext
//     with a per-island scratch, so each genome is scored by the same
//     Monte-Carlo harness the validation campaigns use, under the paper's
//     fitness
//
//     fitness = (1/N) * sum_n 10000 / (1 + d_n)
//
//     over N = FitnessConfig.SimsPerEncounter runs (d_n the minimum
//     separation of run n; a mid-air collision gives the maximum gain
//     10000), which steers the search toward encounters the system cannot
//     resolve. One island is the
//     paper's single-population GA; RandomSearch and CompareSearch score
//     the uniform random baseline through the same fitness path.
//
//   - Checkpoint/resume: after every completed generation the full search
//     state (populations, generation counters, archive) serializes to a
//     versioned file. Because every random stream is re-derived from
//     (seed, island, generation), a killed run resumed from its checkpoint
//     produces output byte-identical to an uninterrupted run.
//
//   - A danger archive, the one record of what a search found: every
//     encounter whose fitness crosses a risk threshold is recorded with
//     all its intruders and co-evolved fault genes, deduplicated by
//     normalized encounter-geometry distance (ga.DistanceScale over the
//     search ranges), classified (encounter.ClassifyMulti), and written as
//     JSONL. Ranked by fitness it feeds the top-k report and the geometry
//     tally of section VII (ReportTop, Tally). Archives reload as explicit
//     campaign scenarios, closing the loop sweep -> search -> archive ->
//     sweep.
//
// Populations can additionally be seeded from the worst cells of a prior
// campaign sweep's JSONL output (SweepSeeds), so validation campaigns and
// adversarial searches feed each other instead of starting cold.
package search

import (
	"fmt"

	"acasxval/internal/config"
	"acasxval/internal/encounter"
	"acasxval/internal/fault"
	"acasxval/internal/ga"
	"acasxval/internal/stats"
)

// Spec declares an island-model adversarial search.
type Spec struct {
	// Name labels the search in its archive records.
	Name string
	// System names the system under test on a campaign.SystemSet menu.
	// RunContext takes the resolved factory; the search job resolves it.
	System string

	// Islands is the number of concurrently evolving populations. One
	// island reproduces a single-population GA (with no migration).
	Islands int
	// MigrationInterval is K: elites migrate along the ring every K
	// generations (when more than one island is configured).
	MigrationInterval int
	// MigrationSize is how many of an island's best individuals are
	// cloned to its ring successor at each migration (replacing the
	// successor's worst individuals).
	MigrationSize int

	// Ranges is the encounter search space (per intruder: a K-intruder
	// genome repeats the nine bounds K times in block order).
	Ranges encounter.Ranges
	// Intruders is the intruder count K of every evolved encounter: each
	// genome is K pairwise parameter blocks (length K*encounter.NumParams)
	// decoding to a one-ownship, K-intruder scenario. 0 or 1 keeps the
	// classic pairwise search, bit for bit.
	Intruders int
	// GA configures each island's evolutionary loop. PopulationSize is
	// per island; Generations is the shared generation budget.
	GA ga.Params
	// Fitness configures the per-encounter Monte-Carlo batch (the paper's
	// 100 stochastic simulations averaged into one fitness value). Its
	// Run.Faults profile, when enabled, degrades every evaluation — a
	// search under a fixed lossy channel.
	Fitness FitnessConfig

	// EvolveFaults appends fault.GeneCount degradation genes to every
	// genome: the search co-evolves the surveillance-degradation profile
	// with the encounter geometry, hunting the weakest (scenario, fault)
	// combination instead of assuming clean sensors. The co-evolved
	// profile overrides Fitness.Run.Faults per individual.
	EvolveFaults bool
	// FaultPenalty scales a parsimony term subtracted from co-evolved
	// fitness: FaultPenalty * Profile.Severity(). Zero keeps the raw
	// fitness — the search will happily drive the channel to total loss;
	// a positive penalty prefers the mildest degradation that still
	// breaks the system. Ignored unless EvolveFaults is set.
	FaultPenalty float64

	// ArchiveThreshold is the fitness at or above which an encounter
	// enters the danger archive. With the default collision gain 10000, a
	// value of 5000 means at least roughly half the simulations of the
	// encounter ended in (near) collision.
	ArchiveThreshold float64
	// ArchiveMinDistance is the normalized encounter-geometry distance
	// (in [0, 1], see ga.DistanceScale) under which two archived
	// encounters count as duplicates.
	ArchiveMinDistance float64

	// SeedGenomes are encounter parameter vectors injected into the
	// initial populations (round-robin across islands) instead of random
	// individuals — typically the worst cells of a prior sweep, see
	// SweepSeeds. Genomes are clamped into Ranges.
	SeedGenomes [][]float64

	// Seed makes the whole search deterministic: island streams,
	// per-individual evaluation seeds and breeding all derive from it.
	Seed uint64
}

// DefaultSpec returns a paper-scale island search: 4 islands of 50
// individuals (the paper's total population of 200) evolved for 5
// generations, migrating 2 elites every 2 generations, 100 simulations per
// encounter, archiving encounters that collide in roughly half their runs.
func DefaultSpec() Spec {
	gaParams := ga.DefaultParams()
	gaParams.PopulationSize = 50
	return Spec{
		Name:               "search",
		System:             "none",
		Islands:            4,
		MigrationInterval:  2,
		MigrationSize:      2,
		Ranges:             encounter.DefaultRanges(),
		GA:                 gaParams,
		Fitness:            DefaultFitnessConfig(),
		ArchiveThreshold:   5000,
		ArchiveMinDistance: 0.05,
		Seed:               1,
	}
}

// NumIntruders returns the effective intruder count K (at least 1).
func (s Spec) NumIntruders() int {
	if s.Intruders < 1 {
		return 1
	}
	return s.Intruders
}

// GenomeLen returns the genome length of the search: K pairwise blocks,
// plus the fault genes when the spec co-evolves the degradation profile.
func (s Spec) GenomeLen() int {
	n := s.geomLen()
	if s.EvolveFaults {
		n += fault.GeneCount
	}
	return n
}

// geomLen is the geometry prefix of each genome: K pairwise blocks.
func (s Spec) geomLen() int { return s.NumIntruders() * encounter.NumParams }

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("search: empty name")
	}
	if s.Intruders < 0 {
		return fmt.Errorf("search: negative intruder count %d", s.Intruders)
	}
	if s.Islands < 1 {
		return fmt.Errorf("search: islands %d < 1", s.Islands)
	}
	if s.MigrationInterval < 1 {
		return fmt.Errorf("search: migration interval %d < 1", s.MigrationInterval)
	}
	if s.MigrationSize < 0 {
		return fmt.Errorf("search: negative migration size %d", s.MigrationSize)
	}
	if s.MigrationSize >= s.GA.PopulationSize {
		return fmt.Errorf("search: migration size %d >= island population %d",
			s.MigrationSize, s.GA.PopulationSize)
	}
	if err := s.Ranges.Validate(); err != nil {
		return err
	}
	if err := s.GA.Validate(); err != nil {
		return err
	}
	if err := s.Fitness.Validate(); err != nil {
		return err
	}
	if s.ArchiveThreshold < 0 {
		return fmt.Errorf("search: negative archive threshold %v", s.ArchiveThreshold)
	}
	if s.ArchiveMinDistance < 0 || s.ArchiveMinDistance > 1 {
		return fmt.Errorf("search: archive min distance %v outside [0, 1]", s.ArchiveMinDistance)
	}
	if !stats.AllFinite(s.FaultPenalty) || s.FaultPenalty < 0 {
		return fmt.Errorf("search: fault penalty %v (want a finite value >= 0)", s.FaultPenalty)
	}
	for i, g := range s.SeedGenomes {
		// A K-intruder search accepts both full K-block genomes and plain
		// pairwise ones — the latter (typically worst cells of a pairwise
		// sweep) are tiled to K converging copies at initialization. A
		// fault-evolving search additionally accepts geometry-only seeds;
		// their fault genes initialize to the neutral (clean) profile.
		if len(g) != s.GenomeLen() && len(g) != s.geomLen() && len(g) != encounter.NumParams {
			return fmt.Errorf("search: seed genome %d has %d genes, want %d (or %d to tile)",
				i, len(g), s.GenomeLen(), encounter.NumParams)
		}
		// NaN survives clamping (comparisons are false) and would poison
		// the population; reject it up front.
		if !stats.AllFinite(g...) {
			return fmt.Errorf("search: seed genome %d has a non-finite gene", i)
		}
	}
	return nil
}

// FromConfig reads a Spec from an ECJ-style parameter set. The GA operator
// keys are those of ga.FromConfig (pop.size is the per-island population);
// the search-specific keys (defaults from DefaultSpec):
//
//	seed                      the run seed every random stream derives from
//	search.name
//	search.system             system under test (default none)
//	search.islands
//	search.intruders          intruder count K per evolved encounter
//	                          (default 1, the classic pairwise genome)
//	search.migration.interval
//	search.migration.size
//	search.sims               simulations per encounter
//	search.archive.threshold  fitness admitting an encounter to the archive
//	search.archive.mindist    normalized dedup distance in [0, 1]
//	search.faults.preset      fixed degradation profile for every
//	                          evaluation (fault.PresetNames), overridable
//	                          field by field:
//	search.faults.burst.enter / burst.exit / burst.drop / range /
//	search.faults.latency / commloss.start / commloss.duration
//	search.faults.evolve      co-evolve the profile with the geometry
//	                          (appends fault.GeneCount genes per genome)
//	search.faults.penalty     severity parsimony weight on co-evolved
//	                          fitness
//
// Any other search.* key is an error.
func FromConfig(c *config.Params) (Spec, error) {
	s := DefaultSpec()
	var err error
	if s.GA, err = ga.FromConfig(c); err != nil {
		return s, err
	}
	seed, err := c.IntOr("seed", int(s.Seed))
	if err != nil {
		return s, err
	}
	s.Seed = uint64(seed)
	s.Name = c.StringOr("search.name", s.Name)
	s.System = c.StringOr("search.system", s.System)
	if s.Islands, err = c.IntOr("search.islands", s.Islands); err != nil {
		return s, err
	}
	if s.Intruders, err = c.IntOr("search.intruders", s.Intruders); err != nil {
		return s, err
	}
	if s.MigrationInterval, err = c.IntOr("search.migration.interval", s.MigrationInterval); err != nil {
		return s, err
	}
	if s.MigrationSize, err = c.IntOr("search.migration.size", s.MigrationSize); err != nil {
		return s, err
	}
	if s.Fitness.SimsPerEncounter, err = c.IntOr("search.sims", s.Fitness.SimsPerEncounter); err != nil {
		return s, err
	}
	if s.ArchiveThreshold, err = c.FloatOr("search.archive.threshold", s.ArchiveThreshold); err != nil {
		return s, err
	}
	if s.ArchiveMinDistance, err = c.FloatOr("search.archive.mindist", s.ArchiveMinDistance); err != nil {
		return s, err
	}
	if s.Fitness.Run.Faults, err = fault.FromConfig(c, "search.faults."); err != nil {
		return s, fmt.Errorf("search: %w", err)
	}
	if s.EvolveFaults, err = c.BoolOr("search.faults.evolve", false); err != nil {
		return s, err
	}
	if s.FaultPenalty, err = c.FloatOr("search.faults.penalty", 0); err != nil {
		return s, err
	}
	if bad := c.Unread("search."); len(bad) > 0 {
		return s, fmt.Errorf("search: unknown key %q", bad[0])
	}
	return s, s.Validate()
}
