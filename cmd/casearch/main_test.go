package main

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"acasxval/internal/search"
)

// TestSearchSpecDefault: with no file and no arguments casearch runs the
// paper's section VII search — one population of 200.
func TestSearchSpecDefault(t *testing.T) {
	got, err := searchSpec("", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := search.DefaultSpec()
	want.Islands = 1
	want.GA.PopulationSize = 200
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flagless spec\n got %+v\nwant %+v", got, want)
	}
}

// TestSearchSpecOverrides: arguments override the file, a later argument
// an earlier one, and keys neither sets keep the file's values.
func TestSearchSpecOverrides(t *testing.T) {
	file := filepath.Join("..", "..", "params", "search-demo.params")
	got, err := searchSpec(file, []string{"search.sims=5", "search.islands=2", "search.islands=3", "seed=4"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Fitness.SimsPerEncounter != 5 || got.Islands != 3 || got.Seed != 4 {
		t.Errorf("overrides not applied: sims %d islands %d seed %d", got.Fitness.SimsPerEncounter, got.Islands, got.Seed)
	}
	if got.GA.PopulationSize != 20 || got.Name != "demo" {
		t.Errorf("file values lost: pop %d name %q", got.GA.PopulationSize, got.Name)
	}
	// The file's search.islands wins over casearch's one-island default.
	if got, err := searchSpec(file, nil); err != nil || got.Islands != 4 {
		t.Errorf("file islands: %d, %v; want 4", got.Islands, err)
	}
}

// TestSearchSpecErrors: an unknown key or a malformed argument fails
// naming it, and out-of-range values fail through Spec.Validate.
func TestSearchSpecErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"pop.sise=8"}, "pop.sise"},
		{[]string{"search.migration.intervl=3"}, "search.migration.intervl"},
		{[]string{"generations"}, `"generations"`},
		{[]string{"-top"}, `"-top"`},
		{[]string{"search.archive.mindist=2"}, "min distance"},
		{[]string{"search.islands=0"}, "islands 0"},
		{[]string{"search.sims=many"}, "search.sims"},
	} {
		if _, err := searchSpec("", tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err %v, want one containing %s", tc.args, err, tc.want)
		}
	}
}

// TestSearchSpecShippedFiles: every shipped parameter file is a valid
// search spec; campaign keys in shared files are left to sweep.
func TestSearchSpecShippedFiles(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "params", "*.params"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no parameter files: %v", err)
	}
	for _, f := range files {
		if _, err := searchSpec(f, nil); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}
