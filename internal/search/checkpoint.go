package search

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"

	"acasxval/internal/campaign"
	"acasxval/internal/durable"
	"acasxval/internal/encounter"
	"acasxval/internal/fault"
	"acasxval/internal/ga"
	"acasxval/internal/stats"
)

// Checkpoint file format: a single versioned JSON document. JSON is the
// right fidelity here because Go's encoder emits the shortest decimal that
// round-trips every float64 exactly, so a restored search continues
// bit-identically.
const (
	checkpointMagic   = "acasxval-search-checkpoint"
	checkpointVersion = 1
)

// Checkpoint is the serialized state of a search between generations:
// everything Run needs to continue as if it had never stopped. The random
// streams need no serialization — they re-derive from (seed, island,
// generation).
type Checkpoint struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	// ResultsVersion is the campaign.ResultsVersion of the build that
	// wrote the checkpoint: a build computing other numbers refuses it.
	ResultsVersion int `json:"results_version"`
	// SpecFingerprint guards against resuming under a different search
	// definition (see Spec.Fingerprint).
	SpecFingerprint string `json:"spec_fingerprint"`
	// NextGeneration is the generation about to be evaluated.
	NextGeneration int `json:"next_generation"`
	// Evaluations counts encounter evaluations performed so far.
	Evaluations int `json:"evaluations"`
	// Islands holds each island's population and statistics history.
	Islands []CheckpointIsland `json:"islands"`
	// ArchiveSeq is the archive's name counter; ArchiveEntries its
	// contents in discovery order.
	ArchiveSeq     int            `json:"archive_seq"`
	ArchiveEntries []ArchiveEntry `json:"archive"`
}

// CheckpointIsland is one island's serialized state.
type CheckpointIsland struct {
	Seed       uint64                 `json:"seed"`
	Population []CheckpointIndividual `json:"population"`
	History    []CheckpointGeneration `json:"history"`
}

// CheckpointIndividual is one serialized population member.
type CheckpointIndividual struct {
	Genome    []float64 `json:"genome"`
	Fitness   float64   `json:"fitness"`
	Evaluated bool      `json:"evaluated"`
}

// CheckpointGeneration is one serialized generation record.
type CheckpointGeneration struct {
	Generation int                  `json:"generation"`
	Min        float64              `json:"min"`
	Mean       float64              `json:"mean"`
	Max        float64              `json:"max"`
	Best       CheckpointIndividual `json:"best"`
}

// Fingerprint hashes the results version and the spec fields that define
// the search trajectory, so a checkpoint refuses to resume under a
// different search definition or a build that computes other numbers. The
// system under test is one of them: its decisions shape every fitness.
func (s Spec) Fingerprint() string {
	lo, hi := s.Ranges.Bounds()
	h := fnv.New64a()
	fmt.Fprintf(h, "results=%d|%s|system=%s|islands=%d|k=%d|m=%d|seed=%d", campaign.ResultsVersion, s.Name, s.System, s.Islands, s.MigrationInterval, s.MigrationSize, s.Seed)
	// The intruder count reshapes the whole genome; fingerprint it only when
	// multi-intruder so every pre-existing pairwise checkpoint still resumes.
	if s.NumIntruders() > 1 {
		fmt.Fprintf(h, "|intruders=%d", s.NumIntruders())
	}
	fmt.Fprintf(h, "|pop=%d|gens=%d|sel=%d|tsize=%d|xover=%d|xprob=%g|mprob=%g|msigma=%g|elites=%d",
		s.GA.PopulationSize, s.GA.Generations, s.GA.Selection, s.GA.TournamentSize,
		s.GA.Crossover, s.GA.CrossoverProb, s.GA.MutationProb, s.GA.MutationSigmaFrac, s.GA.Elites)
	fmt.Fprintf(h, "|sims=%d|gain=%g|thr=%g|mind=%g",
		s.Fitness.SimsPerEncounter, s.Fitness.CollisionGain, s.ArchiveThreshold, s.ArchiveMinDistance)
	// Fault co-evolution reshapes the genome and the fitness; fingerprint
	// it only when active so clean-search checkpoints keep their identity.
	// (A fixed profile is already covered by the |run=%+v line below.)
	if s.EvolveFaults {
		fmt.Fprintf(h, "|efaults=true|fpen=%g", s.FaultPenalty)
	}
	// The whole run configuration shapes the trajectory — aircraft
	// dynamics, sensor noise, tracker tuning included — so hash its full
	// rendered form rather than a hand-picked field subset.
	fmt.Fprintf(h, "|run=%+v", s.Fitness.Run)
	fmt.Fprintf(h, "|lo=%v|hi=%v", lo, hi)
	fmt.Fprintf(h, "|seeds=%d", len(s.SeedGenomes))
	for _, g := range s.SeedGenomes {
		fmt.Fprintf(h, "|%v", g)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// validGenomeLen accepts the two genome shapes a checkpoint may carry:
// K geometry blocks, optionally followed by the fault-gene tail of a
// fault-evolving search.
func validGenomeLen(n int) bool {
	r := n % encounter.NumParams
	return r == 0 || (r == fault.GeneCount && n > fault.GeneCount)
}

// finiteCheck rejects NaN/Inf values, which the JSON encoder cannot emit
// and a resumed search must never inherit.
func finiteCheck(what string, xs ...float64) error {
	if !stats.AllFinite(xs...) {
		return fmt.Errorf("search: checkpoint %s is not finite", what)
	}
	return nil
}

// validate checks the checkpoint's structural invariants — everything that
// can be verified without the spec. Spec-dependent checks (island count,
// population size, generation bounds) happen in engine.restore.
func (c *Checkpoint) validate() error {
	if c.Magic != checkpointMagic {
		return fmt.Errorf("search: not a search checkpoint (magic %q)", c.Magic)
	}
	if c.Version != checkpointVersion {
		return fmt.Errorf("search: checkpoint version %d, want %d", c.Version, checkpointVersion)
	}
	if c.NextGeneration < 1 {
		return fmt.Errorf("search: checkpoint next generation %d < 1", c.NextGeneration)
	}
	if c.Evaluations < 0 {
		return fmt.Errorf("search: negative checkpoint evaluation count %d", c.Evaluations)
	}
	if len(c.Islands) == 0 {
		return fmt.Errorf("search: checkpoint has no islands")
	}
	if c.ArchiveSeq < len(c.ArchiveEntries) {
		return fmt.Errorf("search: archive seq %d < %d entries", c.ArchiveSeq, len(c.ArchiveEntries))
	}
	for i, isl := range c.Islands {
		if len(isl.Population) == 0 {
			return fmt.Errorf("search: checkpoint island %d has an empty population", i)
		}
		for j, ind := range isl.Population {
			if len(ind.Genome) == 0 || !validGenomeLen(len(ind.Genome)) {
				return fmt.Errorf("search: checkpoint island %d individual %d has %d genes, want a positive multiple of %d (optionally + %d fault genes)",
					i, j, len(ind.Genome), encounter.NumParams, fault.GeneCount)
			}
			if err := finiteCheck("genome gene", ind.Genome...); err != nil {
				return err
			}
			if err := finiteCheck("fitness", ind.Fitness); err != nil {
				return err
			}
		}
		for j, gs := range isl.History {
			if gs.Generation != j {
				return fmt.Errorf("search: checkpoint island %d history entry %d labeled generation %d",
					i, j, gs.Generation)
			}
			if len(gs.Best.Genome) != 0 && !validGenomeLen(len(gs.Best.Genome)) {
				return fmt.Errorf("search: checkpoint island %d history entry %d best genome has %d genes, want a multiple of %d (optionally + %d fault genes)",
					i, j, len(gs.Best.Genome), encounter.NumParams, fault.GeneCount)
			}
			if err := finiteCheck("generation stats", gs.Min, gs.Mean, gs.Max, gs.Best.Fitness); err != nil {
				return err
			}
			if err := finiteCheck("best genome gene", gs.Best.Genome...); err != nil {
				return err
			}
		}
	}
	for _, e := range c.ArchiveEntries {
		if err := e.validate(); err != nil {
			return err
		}
	}
	return nil
}

// DecodeCheckpoint parses and validates a serialized checkpoint. Malformed
// input returns an error; it never panics.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("search: decode checkpoint: %w", err)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// EncodeCheckpoint serializes a checkpoint.
func EncodeCheckpoint(c *Checkpoint) ([]byte, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	data, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("search: encode checkpoint: %w", err)
	}
	return data, nil
}

// LoadCheckpointFile reads and validates a checkpoint from disk.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	return DecodeCheckpoint(data)
}

// SaveCheckpointFile writes a checkpoint durably and atomically: the bytes
// are fsynced before the rename and the directory entry after it (see
// durable.WriteFileAtomic), so a run killed — or a machine powered off —
// mid-write leaves the previous checkpoint intact, never a torn or empty
// file.
func SaveCheckpointFile(path string, c *Checkpoint) error {
	data, err := EncodeCheckpoint(c)
	if err != nil {
		return err
	}
	if err := durable.WriteFileAtomic(path, append(data, '\n')); err != nil {
		return fmt.Errorf("search: save checkpoint: %w", err)
	}
	return nil
}

// snapshot captures the engine state as a checkpoint.
func (e *engine) snapshot() *Checkpoint {
	c := &Checkpoint{
		Magic:           checkpointMagic,
		Version:         checkpointVersion,
		ResultsVersion:  campaign.ResultsVersion,
		SpecFingerprint: e.spec.Fingerprint(),
		NextGeneration:  e.nextGen,
		Evaluations:     e.evals,
		ArchiveSeq:      e.archive.seq,
		ArchiveEntries:  e.archive.entries,
	}
	c.Islands = make([]CheckpointIsland, len(e.islands))
	for i, isl := range e.islands {
		ci := CheckpointIsland{Seed: isl.seed}
		ci.Population = make([]CheckpointIndividual, len(isl.pop))
		for j, ind := range isl.pop {
			ci.Population[j] = CheckpointIndividual{
				Genome:    ind.Genome,
				Fitness:   ind.Fitness,
				Evaluated: ind.Evaluated,
			}
		}
		ci.History = make([]CheckpointGeneration, len(isl.history))
		for j, gs := range isl.history {
			ci.History[j] = CheckpointGeneration{
				Generation: gs.Generation,
				Min:        gs.Min,
				Mean:       gs.Mean,
				Max:        gs.Max,
				Best: CheckpointIndividual{
					Genome:    gs.Best.Genome,
					Fitness:   gs.Best.Fitness,
					Evaluated: gs.Best.Evaluated,
				},
			}
		}
		c.Islands[i] = ci
	}
	return c
}

// restore loads a checkpoint into the engine, verifying it belongs to the
// engine's spec.
func (e *engine) restore(c *Checkpoint) error {
	if c.ResultsVersion != campaign.ResultsVersion {
		return fmt.Errorf("search: checkpoint written under results version %d, this build computes version %d: delete it to start fresh",
			c.ResultsVersion, campaign.ResultsVersion)
	}
	want := e.spec.Fingerprint()
	if c.SpecFingerprint != want {
		return fmt.Errorf("search: checkpoint belongs to a different spec (fingerprint %s, want %s)",
			c.SpecFingerprint, want)
	}
	if len(c.Islands) != e.spec.Islands {
		return fmt.Errorf("search: checkpoint has %d islands, spec wants %d", len(c.Islands), e.spec.Islands)
	}
	if c.NextGeneration > e.spec.GA.Generations {
		return fmt.Errorf("search: checkpoint next generation %d beyond budget %d",
			c.NextGeneration, e.spec.GA.Generations)
	}
	e.islands = make([]*island, len(c.Islands))
	for i, ci := range c.Islands {
		if len(ci.Population) != e.spec.GA.PopulationSize {
			return fmt.Errorf("search: checkpoint island %d population %d, spec wants %d",
				i, len(ci.Population), e.spec.GA.PopulationSize)
		}
		if want := stats.DeriveSeed(e.spec.Seed, i); ci.Seed != want {
			return fmt.Errorf("search: checkpoint island %d seed %d, derived %d", i, ci.Seed, want)
		}
		isl := &island{id: i, seed: ci.Seed}
		isl.pop = make(ga.Population, len(ci.Population))
		for j, ind := range ci.Population {
			if len(ind.Genome) != e.spec.GenomeLen() {
				return fmt.Errorf("search: checkpoint island %d individual %d has %d genes, spec wants %d",
					i, j, len(ind.Genome), e.spec.GenomeLen())
			}
			isl.pop[j] = ga.Individual{
				Genome:    append([]float64(nil), ind.Genome...),
				Fitness:   ind.Fitness,
				Evaluated: ind.Evaluated,
			}
		}
		isl.history = make([]ga.GenerationStats, len(ci.History))
		for j, gs := range ci.History {
			isl.history[j] = ga.GenerationStats{
				Generation: gs.Generation,
				Min:        gs.Min,
				Mean:       gs.Mean,
				Max:        gs.Max,
				Best: ga.Individual{
					Genome:    append([]float64(nil), gs.Best.Genome...),
					Fitness:   gs.Best.Fitness,
					Evaluated: gs.Best.Evaluated,
				},
			}
		}
		e.islands[i] = isl
	}
	e.archive.seq = c.ArchiveSeq
	e.archive.entries = append([]ArchiveEntry(nil), c.ArchiveEntries...)
	e.nextGen = c.NextGeneration
	e.evals = c.Evaluations
	return nil
}
