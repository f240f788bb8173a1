package search

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"acasxval/internal/config"
	"acasxval/internal/encounter"
	"acasxval/internal/fault"
	"acasxval/internal/ga"
	"acasxval/internal/montecarlo"
	"acasxval/internal/stats"
)

// faultEvolveSpec is the shared co-evolution fixture: the small test
// search with the fault-gene tail enabled and a mild parsimony penalty.
func faultEvolveSpec() Spec {
	s := testSpec()
	s.EvolveFaults = true
	s.FaultPenalty = 100
	return s
}

func TestGenomeLenWithFaults(t *testing.T) {
	s := testSpec()
	if got, want := s.GenomeLen(), encounter.NumParams; got != want {
		t.Errorf("clean genome length %d, want %d", got, want)
	}
	s.EvolveFaults = true
	if got, want := s.GenomeLen(), encounter.NumParams+fault.GeneCount; got != want {
		t.Errorf("evolving genome length %d, want %d", got, want)
	}
	s.Intruders = 2
	if got, want := s.GenomeLen(), 2*encounter.NumParams+fault.GeneCount; got != want {
		t.Errorf("K=2 evolving genome length %d, want %d", got, want)
	}
}

// TestArchiveRescoresBitForBit: the danger archive is a complete failure
// record. Every entry of a two-intruder search that co-evolves fault
// genes, re-scored through the engine's fitness path from its Params and
// Fault at the seed its island, generation and index derive, reproduces
// its archived fitness bit for bit.
func TestArchiveRescoresBitForBit(t *testing.T) {
	spec := faultEvolveSpec()
	spec.Intruders = 2
	spec.ArchiveThreshold = 500
	res, err := RunContext(context.Background(), spec, testFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Archive.Len() < 10 {
		t.Fatalf("archive holds %d entries, want at least 10", res.Archive.Len())
	}
	e, err := newEngine(spec, testFactory, 1)
	if err != nil {
		t.Fatal(err)
	}
	var scratch montecarlo.Scratch
	for _, entry := range res.Archive.entries {
		if len(entry.Params) != 2*encounter.NumParams || len(entry.Fault) != fault.GeneCount {
			t.Fatalf("%s: %d params and %d fault genes, want %d and %d",
				entry.Name, len(entry.Params), len(entry.Fault), 2*encounter.NumParams, fault.GeneCount)
		}
		genome := append(append([]float64(nil), entry.Params...), entry.Fault...)
		seed := stats.DeriveSeed(stats.DeriveSeed(spec.Seed, entry.Island), entry.Generation*spec.GA.PopulationSize+entry.Index)
		s, err := e.score(context.Background(), genome, seed, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(s.fitness) != math.Float64bits(entry.Fitness) {
			t.Errorf("%s: re-scored fitness %v, archived %v", entry.Name, s.fitness, entry.Fitness)
		}
	}
}

// TestFaultEvolutionDeterministic: the co-evolving search is as
// reproducible as the clean one — identical archives, histories, and
// best (scenario, fault) pairs for identical specs.
func TestFaultEvolutionDeterministic(t *testing.T) {
	res1, err := RunContext(context.Background(), faultEvolveSpec(), testFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := RunContext(context.Background(), faultEvolveSpec(), testFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(archiveJSONL(t, res1), archiveJSONL(t, res2)) {
		t.Error("archive JSONL differs between identical co-evolving runs")
	}
	if !reflect.DeepEqual(res1.Islands, res2.Islands) {
		t.Error("island histories differ between identical co-evolving runs")
	}
	if !reflect.DeepEqual(res1.Best, res2.Best) {
		t.Error("best (scenario, fault) pairs differ between identical co-evolving runs")
	}
	if err := res1.Best.Fault.Validate(); err != nil {
		t.Errorf("best co-evolved profile invalid: %v", err)
	}
}

// TestFaultEvolutionDiffersFromClean: the fault genes must actually
// change the trajectory — a co-evolving search that reproduces the clean
// search bit for bit is not evolving anything.
func TestFaultEvolutionDiffersFromClean(t *testing.T) {
	clean, err := RunContext(context.Background(), testSpec(), testFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	evolved, err := RunContext(context.Background(), faultEvolveSpec(), testFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(clean.Islands, evolved.Islands) {
		t.Error("co-evolving search reproduced the clean trajectory exactly")
	}
}

// TestFaultEvolutionArchiveCarriesGenes: every archived entry of a
// co-evolving search records its degradation profile, decodable and
// valid; clean-search entries stay gene-free so their JSONL is
// byte-stable.
func TestFaultEvolutionArchiveCarriesGenes(t *testing.T) {
	evolved, err := RunContext(context.Background(), faultEvolveSpec(), testFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if evolved.Archive.Len() == 0 {
		t.Fatal("co-evolving search archived nothing; assertions are vacuous")
	}
	for _, e := range evolved.Archive.entries {
		if len(e.Fault) != fault.GeneCount {
			t.Fatalf("entry %s has %d fault genes, want %d", e.Name, len(e.Fault), fault.GeneCount)
		}
		if len(e.Params)%encounter.NumParams != 0 {
			t.Errorf("entry %s params length %d is not geometry-only", e.Name, len(e.Params))
		}
		if err := fault.FromGenes(e.Fault).Validate(); err != nil {
			t.Errorf("entry %s decodes to an invalid profile: %v", e.Name, err)
		}
	}
	// Round-trip through JSONL.
	loaded, _, err := LoadArchive(bytes.NewReader(archiveJSONL(t, evolved)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, evolved.Archive.entries) {
		t.Error("archive with fault genes does not round-trip through JSONL")
	}

	clean, err := RunContext(context.Background(), testSpec(), testFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range clean.Archive.entries {
		if len(e.Fault) != 0 {
			t.Errorf("clean-search entry %s grew fault genes %v", e.Name, e.Fault)
		}
	}
}

// TestFaultPenaltyLowersFitness: with an enormous parsimony penalty every
// degraded individual scores worse than its severity-zero twin would, so
// the best fitness can only drop relative to the unpenalized run.
func TestFaultPenaltyLowersFitness(t *testing.T) {
	raw := faultEvolveSpec()
	raw.FaultPenalty = 0
	rawRes, err := RunContext(context.Background(), raw, testFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	penalized := faultEvolveSpec()
	penalized.FaultPenalty = 1e6
	penRes, err := RunContext(context.Background(), penalized, testFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if penRes.Best.Fitness > rawRes.Best.Fitness {
		t.Errorf("penalized best fitness %v exceeds unpenalized %v", penRes.Best.Fitness, rawRes.Best.Fitness)
	}
}

// TestFixedFaultProfileSearch: a search under a fixed degraded channel
// (no co-evolution) runs deterministically with the classic genome and a
// gene-free archive.
func TestFixedFaultProfileSearch(t *testing.T) {
	s := testSpec()
	p, err := fault.Preset("moderate")
	if err != nil {
		t.Fatal(err)
	}
	s.Fitness.Run.Faults = p
	res1, err := RunContext(context.Background(), s, testFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := RunContext(context.Background(), s, testFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(archiveJSONL(t, res1), archiveJSONL(t, res2)) {
		t.Error("fixed-profile archives differ between identical runs")
	}
	for _, e := range res1.Archive.entries {
		if len(e.Fault) != 0 {
			t.Errorf("fixed-profile entry %s carries fault genes (only co-evolution records them)", e.Name)
		}
	}
	clean, err := RunContext(context.Background(), testSpec(), testFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(clean.Islands, res1.Islands) {
		t.Error("fixed degraded channel reproduced the clean trajectory exactly")
	}
}

// TestFaultEvolutionCheckpointResume: a co-evolving search killed
// mid-run resumes to the bit-identical archive, and its checkpoint
// refuses to resume under a clean spec (and vice versa).
func TestFaultEvolutionCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "faulted.ckpt")
	full, err := RunContext(context.Background(), faultEvolveSpec(), testFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunContext(context.Background(), faultEvolveSpec(), testFactory, Options{CheckpointPath: ckpt, StopAfter: 2}); err != nil {
		t.Fatal(err)
	}
	resumed, err := RunContext(context.Background(), faultEvolveSpec(), testFactory, Options{CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Resumed {
		t.Error("resumed run not flagged as resumed")
	}
	if !bytes.Equal(archiveJSONL(t, full), archiveJSONL(t, resumed)) {
		t.Error("resumed co-evolving archive differs from the uninterrupted run")
	}
	if !reflect.DeepEqual(full.Best, resumed.Best) {
		t.Error("resumed best differs from the uninterrupted run")
	}

	if _, err := RunContext(context.Background(), testSpec(), testFactory, Options{CheckpointPath: ckpt}); err == nil {
		t.Error("clean spec resumed a co-evolving checkpoint")
	}
}

// TestFaultSeedGenomes: geometry-only seeds in a co-evolving search get
// the neutral fault tail; full-length seeds inject verbatim.
func TestFaultSeedGenomes(t *testing.T) {
	spec := faultEvolveSpec()
	geomSeed := encounter.PresetHeadOn().Vector()
	fullSeed := append(encounter.PresetCrossing().Vector(), fault.Genes(mustPreset(t, "severe"))...)
	spec.SeedGenomes = [][]float64{geomSeed, fullSeed}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	if _, err := RunContext(context.Background(), spec, testFactory, Options{}); err != nil {
		t.Fatal(err)
	}

	// Inspect initialization directly for the injected genomes.
	e := &engine{spec: spec, geomLen: spec.geomLen()}
	lo, hi := spec.Ranges.MultiBounds(1)
	flo, fhi := fault.GeneBounds()
	bounds, err := ga.NewBounds(append(lo, flo...), append(hi, fhi...))
	if err != nil {
		t.Fatal(err)
	}
	e.bounds = bounds
	e.initialize()

	got0 := e.islands[0].pop[0].Genome
	want0 := append(append([]float64(nil), geomSeed...), fault.NeutralGenes()...)
	e.bounds.Clamp(want0)
	if !reflect.DeepEqual(got0, want0) {
		t.Errorf("geometry-only seed not extended with neutral fault genes:\n got %v\nwant %v", got0, want0)
	}
	got1 := e.islands[1].pop[0].Genome
	want1 := append([]float64(nil), fullSeed...)
	e.bounds.Clamp(want1)
	if !reflect.DeepEqual(got1, want1) {
		t.Errorf("full-length seed not injected verbatim:\n got %v\nwant %v", got1, want1)
	}
}

// TestFromConfigFaults: the search.faults.* keys parse into the spec.
func TestFromConfigSearchFaults(t *testing.T) {
	text := `
search.faults.preset = moderate
search.faults.latency = 1
search.faults.evolve = true
search.faults.penalty = 250
`
	params, err := config.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromConfig(params)
	if err != nil {
		t.Fatal(err)
	}
	want := mustPreset(t, "moderate")
	want.Latency = 1
	if s.Fitness.Run.Faults != want {
		t.Errorf("fixed profile = %+v, want %+v", s.Fitness.Run.Faults, want)
	}
	if !s.EvolveFaults || s.FaultPenalty != 250 {
		t.Errorf("evolve = %v penalty = %v", s.EvolveFaults, s.FaultPenalty)
	}

	bad, err := config.Parse("search.faults.penalty = -1\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromConfig(bad); err == nil {
		t.Error("negative fault penalty accepted")
	}
	badPreset, err := config.Parse("search.faults.preset = catastrophic\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromConfig(badPreset); err == nil {
		t.Error("unknown fault preset accepted")
	}
}

func mustPreset(t *testing.T, name string) fault.Profile {
	t.Helper()
	p, err := fault.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
