package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"acasxval/internal/durable"
	"acasxval/internal/encounter"
	"acasxval/internal/fault"
	"acasxval/internal/search"
)

// TestArchiveReplay: -archive replays the entry at -rank in fitness order
// with every intruder and its archived fault profile. -faults next to a
// fault-carrying entry, a rank outside the archive, -preset or -genome
// set next to -archive (even to the default) and -rank without -archive
// are errors.
func TestArchiveReplay(t *testing.T) {
	profile := fault.Profile{BurstEnter: 0.2, BurstExit: 0.5, BurstDrop: 0.9, Latency: 2}
	two := search.ArchiveEntry{Name: "danger/0001", Fitness: 9000,
		Params: append(encounter.PresetTailApproach().Vector(), encounter.PresetHeadOn().Vector()...),
		Fault:  fault.Genes(profile)}
	clean := search.ArchiveEntry{Name: "danger/0000", Fitness: 6000, Params: encounter.PresetCrossing().Vector()}
	data, err := durable.JSONL([]search.ArchiveEntry{clean, two})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.archive.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	replay := func(extra ...string) (string, error) {
		var out bytes.Buffer
		err := run(append([]string{"-system", "svo", "-archive", path, "-runs", "2"}, extra...), &out)
		return out.String(), err
	}

	out, err := replay("-rank", "1")
	if err != nil {
		t.Fatal(err)
	}
	m, err := two.MultiEncounterParams()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rank 1: danger/0001", "encounter: " + m.String(), fmt.Sprintf("archived profile %+v", profile)} {
		if !strings.Contains(out, want) {
			t.Errorf("rank 1 replay lacks %q:\n%s", want, out)
		}
	}
	out, err = replay("-rank", "2", "-faults", "light")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rank 2: danger/0000") || strings.Contains(out, "archived profile") {
		t.Errorf("rank 2 replay is not the clean entry under the light preset:\n%s", out)
	}

	if _, err := replay("-rank", "1", "-faults", "light"); err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Errorf("-faults over an archived profile: %v, want a conflict error", err)
	}
	if _, err := replay("-rank", "3"); err == nil || !strings.Contains(err.Error(), "outside 1..2") {
		t.Errorf("-rank 3 of 2: %v, want a range error", err)
	}
	if err := run([]string{"-archive", filepath.Join(t.TempDir(), "none.jsonl")}, io.Discard); err == nil {
		t.Error("a missing archive file replayed")
	}
	for _, extra := range [][]string{{"-preset", "headon"}, {"-genome", "1,2,3,4,5,6,7,8,9"}} {
		if _, err := replay(extra...); err == nil || !strings.Contains(err.Error(), "excludes -preset and -genome") {
			t.Errorf("-archive with %v: %v, want a conflict error", extra, err)
		}
	}
	if err := run([]string{"-system", "svo", "-rank", "2"}, io.Discard); err == nil || !strings.Contains(err.Error(), "-rank needs -archive") {
		t.Errorf("-rank without -archive: %v, want an error", err)
	}
}
