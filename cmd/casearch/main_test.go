package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"acasxval/internal/campaign"
	"acasxval/internal/config"
	"acasxval/internal/search"
	"acasxval/internal/serve"
)

// TestSearchSpecDefault: with no file and no arguments casearch runs the
// paper's section VII search — one population of 200 against ACAS XU.
func TestSearchSpecDefault(t *testing.T) {
	got, err := searchSpec("", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := search.DefaultSpec()
	want.Islands = 1
	want.System = "acasx"
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

// TestOnePathParity: each demo search run by casearch -out writes exactly
// the set of files the same spec writes as a caserve job (archive, result,
// summary and checkpoint; a file only one side writes fails), byte for
// byte, under the same small overrides with search.system and
// search.islands set explicitly (casearch and caserve default them
// differently).
func TestOnePathParity(t *testing.T) {
	overrides := []string{"search.system=svo", "search.islands=2", "pop.size=6", "generations=2", "search.sims=3", "search.archive.threshold=1000"}
	systems := campaign.DefaultSystems(nil)
	for _, demo := range []string{"search-demo", "multi-demo", "quick"} {
		file := filepath.Join("..", "..", "params", demo+".params")
		base := filepath.Join(t.TempDir(), demo)
		if err := run(append([]string{"-params", file, "-out", base}, overrides...), io.Discard); err != nil {
			t.Fatalf("%s: %v", demo, err)
		}
		job := serveJob(t, systems, serve.KindSearch, specText(t, file, overrides))
		got, want := artifactSet(t, base), artifactSet(t, job)
		if _, ok := want[search.CheckpointSuffix]; !ok || !reflect.DeepEqual(suffixes(got), suffixes(want)) {
			t.Fatalf("%s: casearch -out wrote %v, the served job %v", demo, suffixes(got), suffixes(want))
		}
		for suffix, data := range want {
			if got[suffix] != data {
				t.Errorf("%s: %s%s differs from %s%s:\n%s\nvs\n%s", demo, base, suffix, job, suffix, got[suffix], data)
			}
		}
	}
}

// TestRerunResumes: rerunning into an existing checkpoint resumes from it
// without evaluating again, and a checkpoint of another spec (another seed
// or another system under test) is an error.
func TestRerunResumes(t *testing.T) {
	base := filepath.Join(t.TempDir(), "s")
	args := []string{"-out", base, "search.system=svo", "pop.size=6", "generations=2", "search.sims=3"}
	if err := run(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "resumed from "+base+search.CheckpointSuffix) {
		t.Errorf("rerun did not resume:\n%s", out.String())
	}
	if err := run(append(args, "seed=9"), io.Discard); err == nil || !strings.Contains(err.Error(), "different spec") {
		t.Errorf("rerun under another seed: %v, want a checkpoint fingerprint error", err)
	}
	if err := run(append(args, "search.system=none"), io.Discard); err == nil || !strings.Contains(err.Error(), "different spec") {
		t.Errorf("rerun under another system: %v, want a checkpoint fingerprint error", err)
	}
}

// specText is the params text a caserve client submits for the file with
// the key=value overrides applied.
func specText(t *testing.T, file string, overrides []string) string {
	t.Helper()
	params, err := config.Load(file)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range overrides {
		key, value, _ := strings.Cut(kv, "=")
		params.Set(key, value)
	}
	return params.Dump()
}

// serveJob runs params as one job of the given kind on an in-process
// caserve server and returns the job's artifact base.
func serveJob(t *testing.T, systems campaign.SystemSet, kind, params string) string {
	t.Helper()
	dir := t.TempDir()
	srv, err := serve.NewServer(serve.Config{StateDir: dir, Systems: systems, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	st, err := srv.Submit(kind, params)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if st, err = srv.WaitJob(ctx, st.ID); err != nil || st.Status != serve.StatusDone {
		t.Fatalf("job %+v: %v", st, err)
	}
	return filepath.Join(dir, st.ID)
}

// artifactSet reads every file named base<suffix> into a map by suffix.
func artifactSet(t *testing.T, base string) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(base + "*")
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[string]string, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		set[strings.TrimPrefix(p, base)] = string(data)
	}
	return set
}

// suffixes lists an artifact set's suffixes in order.
func suffixes(set map[string]string) []string {
	out := make([]string, 0, len(set))
	for suffix := range set {
		out = append(out, suffix)
	}
	sort.Strings(out)
	return out
}
