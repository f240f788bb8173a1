package search

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files instead of comparing")

// goldenSpec is deliberately tiny: the golden file exists to catch
// unintended changes to the search trajectory (operator order, seed
// derivation, archive dedup), not to find interesting encounters.
func goldenSpec() Spec {
	s := DefaultSpec()
	s.Name = "golden"
	s.Islands = 2
	s.MigrationInterval = 1
	s.MigrationSize = 1
	s.GA.PopulationSize = 6
	s.GA.Generations = 3
	s.GA.Elites = 1
	s.Fitness.SimsPerEncounter = 4
	s.ArchiveThreshold = 2000
	s.Seed = 7
	return s
}

// TestGoldenArchive pins the engine's archive byte stream: the same spec
// must keep producing the checked-in JSONL, fresh or resumed from a mid-run
// checkpoint. Regenerate with `go test ./internal/search -run Golden -update`
// after an intentional trajectory change.
func TestGoldenArchive(t *testing.T) {
	spec := goldenSpec()
	res, err := RunContext(context.Background(), spec, testFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := archiveJSONL(t, res)
	if len(got) == 0 {
		t.Fatal("golden spec archived nothing; raise its sensitivity")
	}

	golden := filepath.Join("testdata", "golden_archive.jsonl")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("archive JSONL drifted from golden file\ngot:\n%s\nwant:\n%s", got, want)
	}

	// The resumed trajectory must hit the same bytes.
	ckpt := filepath.Join(t.TempDir(), "golden.ckpt")
	if _, err := RunContext(context.Background(), spec, testFactory, Options{CheckpointPath: ckpt, StopAfter: 1}); err != nil {
		t.Fatal(err)
	}
	resumed, err := RunContext(context.Background(), spec, testFactory, Options{CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if got := archiveJSONL(t, resumed); !bytes.Equal(got, want) {
		t.Errorf("resumed archive JSONL drifted from golden file\ngot:\n%s\nwant:\n%s", got, want)
	}
}
