package search

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"acasxval/internal/campaign"
	"acasxval/internal/config"
	"acasxval/internal/encounter"
	"acasxval/internal/ga"
	"acasxval/internal/sim"
	"acasxval/internal/svo"
)

// testFactory equips both aircraft with the SVO baseline: cheap (no logic
// table) but a real avoidance system, so fitness varies across the space.
func testFactory() (sim.System, sim.System) {
	a, err := svo.New(svo.DefaultConfig())
	if err != nil {
		panic(err)
	}
	b, err := svo.New(svo.DefaultConfig())
	if err != nil {
		panic(err)
	}
	return a, b
}

// testSpec is a small three-island search that exercises migration (K=1)
// and the archive.
func testSpec() Spec {
	s := DefaultSpec()
	s.Name = "test"
	s.Islands = 3
	s.MigrationInterval = 1
	s.MigrationSize = 1
	s.GA.PopulationSize = 8
	s.GA.Generations = 4
	s.GA.Elites = 1
	s.Fitness.SimsPerEncounter = 4
	s.ArchiveThreshold = 2000
	s.Seed = 17
	return s
}

// archiveJSONL renders a result's archive as its canonical byte stream.
func archiveJSONL(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Archive.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRunDeterministic(t *testing.T) {
	res1, err := RunContext(context.Background(), testSpec(), testFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := RunContext(context.Background(), testSpec(), testFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(archiveJSONL(t, res1), archiveJSONL(t, res2)) {
		t.Error("archive JSONL differs between identical runs")
	}
	if !reflect.DeepEqual(res1.Islands, res2.Islands) {
		t.Error("island histories differ between identical runs")
	}
	if res1.NumEvaluations != res2.NumEvaluations {
		t.Errorf("evaluation counts differ: %d vs %d", res1.NumEvaluations, res2.NumEvaluations)
	}
	if !reflect.DeepEqual(res1.Best, res2.Best) {
		t.Error("best encounters differ between identical runs")
	}
	spec := testSpec()
	if got, want := len(res1.Islands), spec.Islands; got != want {
		t.Fatalf("got %d island histories, want %d", got, want)
	}
	for i, history := range res1.Islands {
		if len(history) != spec.GA.Generations {
			t.Errorf("island %d: %d generation records, want %d", i, len(history), spec.GA.Generations)
		}
	}
	// Generation 0 evaluates everything; later generations skip elites and
	// migrants, so the count is bounded by the full budget.
	full := spec.Islands * spec.GA.PopulationSize * spec.GA.Generations
	if res1.NumEvaluations <= 0 || res1.NumEvaluations > full {
		t.Errorf("NumEvaluations = %d, want in (0, %d]", res1.NumEvaluations, full)
	}
	if res1.Best.Fitness <= 0 {
		t.Errorf("best fitness %v, want > 0", res1.Best.Fitness)
	}
}

// TestResumeBitIdentical is the acceptance criterion: killing a multi-island
// search after ANY generation and resuming from its checkpoint produces
// output byte-identical to an uninterrupted run with the same seed.
func TestResumeBitIdentical(t *testing.T) {
	spec := testSpec()
	uninterrupted, err := RunContext(context.Background(), spec, testFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantArchive := archiveJSONL(t, uninterrupted)

	for stopAfter := 1; stopAfter < spec.GA.Generations; stopAfter++ {
		ckpt := filepath.Join(t.TempDir(), "search.ckpt")
		partial, err := RunContext(context.Background(), spec, testFactory, Options{CheckpointPath: ckpt, StopAfter: stopAfter})
		if err != nil {
			t.Fatalf("stop after %d: %v", stopAfter, err)
		}
		if !partial.Stopped {
			t.Fatalf("stop after %d: run did not report stopping", stopAfter)
		}
		if partial.GenerationsRun != stopAfter {
			t.Fatalf("stop after %d: %d generations ran", stopAfter, partial.GenerationsRun)
		}
		resumed, err := RunContext(context.Background(), spec, testFactory, Options{CheckpointPath: ckpt})
		if err != nil {
			t.Fatalf("resume from generation %d: %v", stopAfter, err)
		}
		if !resumed.Resumed {
			t.Fatalf("resume from generation %d: run did not report resuming", stopAfter)
		}
		if got := archiveJSONL(t, resumed); !bytes.Equal(got, wantArchive) {
			t.Errorf("resume from generation %d: archive JSONL differs from uninterrupted run\ngot:\n%s\nwant:\n%s",
				stopAfter, got, wantArchive)
		}
		if !reflect.DeepEqual(resumed.Islands, uninterrupted.Islands) {
			t.Errorf("resume from generation %d: island histories differ", stopAfter)
		}
		if resumed.NumEvaluations != uninterrupted.NumEvaluations {
			t.Errorf("resume from generation %d: %d evaluations, want %d",
				stopAfter, resumed.NumEvaluations, uninterrupted.NumEvaluations)
		}
		if !reflect.DeepEqual(resumed.Best, uninterrupted.Best) {
			t.Errorf("resume from generation %d: best encounter differs", stopAfter)
		}
	}
}

// TestResumeCompletedRun: the final generation checkpoints too, so
// resuming a finished search returns the identical result instantly — no
// generation is re-evaluated.
func TestResumeCompletedRun(t *testing.T) {
	spec := testSpec()
	ckpt := filepath.Join(t.TempDir(), "search.ckpt")
	done, err := RunContext(context.Background(), spec, testFactory, Options{CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if done.Resumed {
		t.Error("a run into a missing checkpoint reports resuming")
	}
	resumed, err := RunContext(context.Background(), spec, testFactory, Options{CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.GenerationsRun != spec.GA.Generations {
		t.Errorf("resumed completed run reports %d generations", resumed.GenerationsRun)
	}
	if resumed.NumEvaluations != done.NumEvaluations {
		t.Errorf("resumed completed run re-evaluated: %d vs %d evaluations",
			resumed.NumEvaluations, done.NumEvaluations)
	}
	if !bytes.Equal(archiveJSONL(t, resumed), archiveJSONL(t, done)) {
		t.Error("resumed completed run produced a different archive")
	}
	if !reflect.DeepEqual(resumed.Best, done.Best) {
		t.Error("resumed completed run produced a different best")
	}
}

func TestResumeRejectsDifferentSpec(t *testing.T) {
	spec := testSpec()
	ckpt := filepath.Join(t.TempDir(), "search.ckpt")
	if _, err := RunContext(context.Background(), spec, testFactory, Options{CheckpointPath: ckpt, StopAfter: 1}); err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Seed = spec.Seed + 1
	if _, err := RunContext(context.Background(), other, testFactory, Options{CheckpointPath: ckpt}); err == nil {
		t.Error("resuming under a different seed succeeded, want fingerprint error")
	}
	// The system under test is part of the search definition: a
	// checkpoint must not resume under another system's name.
	other = spec
	other.System = spec.System + "-other"
	if _, err := RunContext(context.Background(), other, testFactory, Options{CheckpointPath: ckpt}); err == nil || !strings.Contains(err.Error(), "different spec") {
		t.Errorf("resuming under a different system: %v, want fingerprint error", err)
	}
}

// TestResumeRejectsOtherResultsVersion: a checkpoint written by a build
// under the previous results version is refused, and the error names that
// version.
func TestResumeRejectsOtherResultsVersion(t *testing.T) {
	spec := testSpec()
	ckpt := filepath.Join(t.TempDir(), "search.ckpt")
	if _, err := RunContext(context.Background(), spec, testFactory, Options{CheckpointPath: ckpt, StopAfter: 1}); err != nil {
		t.Fatal(err)
	}
	c, err := LoadCheckpointFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	c.ResultsVersion = campaign.ResultsVersion - 1
	if err := SaveCheckpointFile(ckpt, c); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("results version %d", campaign.ResultsVersion-1)
	if _, err := RunContext(context.Background(), spec, testFactory, Options{CheckpointPath: ckpt}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("resuming a previous-version checkpoint: %v, want an error naming %q", err, want)
	}
}

func TestMigrationMovesElites(t *testing.T) {
	spec := testSpec()
	e := &engine{spec: spec}
	lo, hi := spec.Ranges.Bounds()
	bounds, err := ga.NewBounds(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	e.bounds = bounds
	e.initialize()
	// Give every individual a known fitness: island i's individual j gets
	// fitness 100*i + j, so island i's best is its last slot.
	for i, isl := range e.islands {
		for j := range isl.pop {
			isl.pop[j].Fitness = float64(100*i + j)
			isl.pop[j].Evaluated = true
		}
	}
	best0 := e.islands[0].pop[len(e.islands[0].pop)-1].Genome
	e.migrate()
	// Island 1's worst slot (index 0) now holds island 0's best.
	got := e.islands[1].pop[0]
	if !reflect.DeepEqual(got.Genome, best0) {
		t.Error("ring migration did not clone island 0's best into island 1's worst slot")
	}
	if !got.Evaluated {
		t.Error("migrant lost its evaluated fitness")
	}
}

func TestSeedGenomesInjected(t *testing.T) {
	spec := testSpec()
	// Out-of-range genes must clamp into the search space.
	seed := make([]float64, encounter.NumParams)
	for i := range seed {
		seed[i] = 1e9
	}
	spec.SeedGenomes = [][]float64{seed, seed, seed, seed}
	e := &engine{spec: spec}
	lo, hi := spec.Ranges.Bounds()
	bounds, err := ga.NewBounds(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	e.bounds = bounds
	e.initialize()
	// Four seeds round-robin over three islands: islands 0 gets slots 0
	// and 1, islands 1 and 2 get slot 0.
	wantSlots := []struct{ island, slot int }{{0, 0}, {1, 0}, {2, 0}, {0, 1}}
	for _, w := range wantSlots {
		g := e.islands[w.island].pop[w.slot].Genome
		for d := range g {
			if g[d] != hi[d] {
				t.Fatalf("island %d slot %d gene %d = %v, want clamped %v", w.island, w.slot, d, g[d], hi[d])
			}
		}
	}
	// A non-seeded slot stays random (inside bounds, not the clamp point).
	g := e.islands[1].pop[1].Genome
	same := true
	for d := range g {
		if g[d] != hi[d] {
			same = false
		}
	}
	if same {
		t.Error("non-seeded slot also holds the clamped seed genome")
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no islands", func(s *Spec) { s.Islands = 0 }},
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"migration interval", func(s *Spec) { s.MigrationInterval = 0 }},
		{"migration size", func(s *Spec) { s.MigrationSize = s.GA.PopulationSize }},
		{"negative threshold", func(s *Spec) { s.ArchiveThreshold = -1 }},
		{"mindist", func(s *Spec) { s.ArchiveMinDistance = 1.5 }},
		{"seed genome", func(s *Spec) { s.SeedGenomes = [][]float64{{1, 2}} }},
		{"population", func(s *Spec) { s.GA.PopulationSize = 1 }},
		{"sims", func(s *Spec) { s.Fitness.SimsPerEncounter = 0 }},
	}
	for _, tc := range cases {
		s := DefaultSpec()
		tc.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", tc.name)
		}
	}
	if err := DefaultSpec().Validate(); err != nil {
		t.Errorf("DefaultSpec invalid: %v", err)
	}
}

func TestFromConfig(t *testing.T) {
	params, err := config.Parse(`
search.name = cfg
search.islands = 6
search.migration.interval = 3
search.migration.size = 4
search.sims = 12
search.archive.threshold = 1234.5
search.archive.mindist = 0.25
pop.size = 30
generations = 7
seed = 99
`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromConfig(params)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "cfg" || s.Islands != 6 || s.MigrationInterval != 3 || s.MigrationSize != 4 {
		t.Errorf("island settings not parsed: %+v", s)
	}
	if s.Fitness.SimsPerEncounter != 12 {
		t.Errorf("sims = %d, want 12", s.Fitness.SimsPerEncounter)
	}
	if s.ArchiveThreshold != 1234.5 || s.ArchiveMinDistance != 0.25 {
		t.Errorf("archive settings not parsed: %+v", s)
	}
	if s.GA.PopulationSize != 30 || s.GA.Generations != 7 || s.Seed != 99 {
		t.Errorf("GA settings not parsed: %+v", s.GA)
	}

	bad, err := config.Parse("search.islands = 0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromConfig(bad); err == nil {
		t.Error("FromConfig accepted zero islands")
	}
}

// TestFromConfigRejectsUnreadKeys: a misspelt search.* key fails naming
// itself instead of leaving its setting at the default; keys under other
// prefixes are left to their own parsers.
func TestFromConfigRejectsUnreadKeys(t *testing.T) {
	typo, err := config.Parse("search.migration.intervl = 3\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromConfig(typo); err == nil || !strings.Contains(err.Error(), "search.migration.intervl") {
		t.Errorf("typo: err %v, want one naming search.migration.intervl", err)
	}
	foreign, err := config.Parse("campaign.samples = 3\nrare.seed = 2\nparent.0 = base.params\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromConfig(foreign); err != nil {
		t.Errorf("foreign keys: %v", err)
	}
}

func TestShippedSearchDemoSpec(t *testing.T) {
	params, err := config.Load("../../params/search-demo.params")
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromConfig(params)
	if err != nil {
		t.Fatal(err)
	}
	if s.Islands < 2 {
		t.Errorf("demo spec declares %d islands, want an island search", s.Islands)
	}
}
