package search

// K-intruder search engine coverage: genome shape, seed tiling,
// determinism, checkpoint/resume bit-identity, and the archive round-trip
// into multi-intruder campaign scenarios.

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"acasxval/internal/encounter"
	"acasxval/internal/ga"
)

// multiSpec is testSpec over two-intruder genomes.
func multiSpec() Spec {
	s := testSpec()
	s.Name = "multi-test"
	s.Intruders = 2
	return s
}

func TestMultiSpecGenomeShape(t *testing.T) {
	s := multiSpec()
	if s.GenomeLen() != 2*encounter.NumParams {
		t.Fatalf("genome length %d, want %d", s.GenomeLen(), 2*encounter.NumParams)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Intruders = -1; s.Validate() == nil {
		t.Error("negative intruder count accepted")
	}
}

func TestMultiSearchDeterministicAndDecodable(t *testing.T) {
	res1, err := RunContext(context.Background(), multiSpec(), testFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := RunContext(context.Background(), multiSpec(), testFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(archiveJSONL(t, res1), archiveJSONL(t, res2)) {
		t.Error("K=2 archive JSONL differs between identical runs")
	}
	if !reflect.DeepEqual(res1.Best, res2.Best) {
		t.Error("K=2 best encounter differs between identical runs")
	}
	if got := res1.Best.Params.NumIntruders(); got != 2 {
		t.Fatalf("best decodes to %d intruders, want 2", got)
	}
	if err := res1.Best.Params.Validate(); err != nil {
		t.Errorf("best encounter not in canonical shared-ownship form: %v", err)
	}
	for _, e := range res1.Archive.Entries() {
		m, err := e.MultiEncounterParams()
		if err != nil {
			t.Fatal(err)
		}
		if m.NumIntruders() != 2 {
			t.Errorf("archive entry %s decodes to %d intruders, want 2", e.Name, m.NumIntruders())
		}
	}
}

func TestMultiSearchResumeBitIdentical(t *testing.T) {
	spec := multiSpec()
	uninterrupted, err := RunContext(context.Background(), spec, testFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "multi.ckpt")
	if _, err := RunContext(context.Background(), spec, testFactory, Options{CheckpointPath: ckpt, StopAfter: 2}); err != nil {
		t.Fatal(err)
	}
	resumed, err := RunContext(context.Background(), spec, testFactory, Options{CheckpointPath: ckpt, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(archiveJSONL(t, resumed), archiveJSONL(t, uninterrupted)) {
		t.Error("resumed K=2 archive differs from uninterrupted run")
	}
	if !reflect.DeepEqual(resumed.Best, uninterrupted.Best) {
		t.Error("resumed K=2 best differs from uninterrupted run")
	}

	// A pairwise spec must refuse the K=2 checkpoint (different genome
	// trajectory, different fingerprint).
	pairwise := spec
	pairwise.Intruders = 1
	if _, err := RunContext(context.Background(), pairwise, testFactory, Options{CheckpointPath: ckpt, Resume: true}); err == nil {
		t.Error("pairwise spec resumed a K=2 checkpoint")
	}
}

// TestMultiSeedTiling: pairwise seed genomes tile to K converging copies;
// full-length genomes inject verbatim (after clamping).
func TestMultiSeedTiling(t *testing.T) {
	spec := multiSpec()
	pairSeed := encounter.PresetHeadOn().Vector()
	fullSeed := encounter.MultiOf(encounter.PresetCrossing(), encounter.PresetTailApproach()).Vector()
	spec.SeedGenomes = [][]float64{pairSeed, fullSeed}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	e := &engine{spec: spec, geomLen: spec.geomLen()}
	lo, hi := spec.Ranges.MultiBounds(2)
	bounds, err := ga.NewBounds(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	e.bounds = bounds
	e.initialize()

	got0 := e.islands[0].pop[0].Genome
	if len(got0) != spec.GenomeLen() {
		t.Fatalf("tiled seed has %d genes, want %d", len(got0), spec.GenomeLen())
	}
	wantTiled := append(append([]float64(nil), pairSeed...), pairSeed...)
	e.bounds.Clamp(wantTiled)
	if !reflect.DeepEqual(got0, wantTiled) {
		t.Errorf("pairwise seed not tiled+clamped:\n got %v\nwant %v", got0, wantTiled)
	}

	got1 := e.islands[1].pop[0].Genome
	wantFull := append([]float64(nil), fullSeed...)
	e.bounds.Clamp(wantFull)
	if !reflect.DeepEqual(got1, wantFull) {
		t.Errorf("full-length seed not injected verbatim:\n got %v\nwant %v", got1, wantFull)
	}

	spec.SeedGenomes = [][]float64{pairSeed[:5]}
	if spec.Validate() == nil {
		t.Error("truncated seed genome accepted")
	}
}
