package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"acasxval/internal/acasx"
	"acasxval/internal/campaign"
	"acasxval/internal/config"
	"acasxval/internal/serve"
)

var demo = filepath.Join("..", "..", "params", "sweep-demo.params")

// TestCampaignSpecOverrides: arguments override the file, a later
// argument an earlier one. campaign.samples leaves a variant's own sample
// count alone; the variant's key clears it.
func TestCampaignSpecOverrides(t *testing.T) {
	got, err := campaignSpec(demo, []string{"campaign.samples=4", "campaign.samples=5", "campaign.seed=3"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples != 5 || got.Seed != 3 || got.Name != "demo" {
		t.Errorf("samples %d seed %d name %q, want 5, 3, demo", got.Samples, got.Seed, got.Name)
	}
	if got.Variants[1].Samples != 8 {
		t.Errorf("variant 1 samples %d, want the file's 8", got.Variants[1].Samples)
	}
	got, err = campaignSpec(demo, []string{"campaign.samples=5", "campaign.variant.1.samples=0"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Variants[1].Samples != 0 {
		t.Errorf("variant 1 samples %d, want 0", got.Variants[1].Samples)
	}
}

// TestCampaignSpecErrors: an unknown key or a malformed argument fails
// naming it, and out-of-range values fail through Spec.Validate.
func TestCampaignSpecErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"campaign.sampels=3"}, "campaign.sampels"},
		{[]string{"pop.size=3"}, "pop.size"},
		{[]string{"campaign.seed"}, `"campaign.seed"`},
		{[]string{"campaign.samples=0"}, "samples 0"},
		{[]string{"campaign.faults=nosuch"}, "nosuch"},
	} {
		if _, err := campaignSpec(demo, tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err %v, want one containing %s", tc.args, err, tc.want)
		}
	}
}

// TestCampaignSpecShippedFiles: every shipped parameter file is a valid
// campaign spec; search keys in shared files are left to casearch.
// params/montecarlo.params is the model-level estimate alone: acasx, svo
// and none at 10000 brute-force samples each under seed 1, no fixed
// scenarios; at reduced samples it expands to one estimator cell per
// system.
func TestCampaignSpecShippedFiles(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "params", "*.params"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no parameter files: %v", err)
	}
	for _, f := range files {
		if _, err := campaignSpec(f, nil); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
	mc := filepath.Join("..", "..", "params", "montecarlo.params")
	spec, err := campaignSpec(mc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.Systems, []string{"acasx", "svo", "none"}) || spec.Samples != 10000 || spec.Seed != 1 ||
		!slices.Equal(spec.Estimators, []string{"bruteforce"}) || len(spec.Presets)+len(spec.Scenarios)+spec.ModelDraws != 0 {
		t.Errorf("%s: %+v", mc, spec)
	}
	if spec, err = campaignSpec(mc, []string{"campaign.samples=200"}); err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Cells()
	if err != nil || len(cells) != 3 || spec.Samples != 200 {
		t.Fatalf("%s at 200 samples: %d cells (%v), samples %d", mc, len(cells), err, spec.Samples)
	}
	for i, c := range cells {
		if c.Estimator != "bruteforce" || c.System != spec.Systems[i] {
			t.Errorf("cell %d: %+v, want a bruteforce estimator cell of %s", i, c, spec.Systems[i])
		}
	}
}

// TestOnePathParity: each demo campaign, and the model-level estimate of
// params/montecarlo.params, run by sweep -out writes the bytes the same
// spec writes as a caserve job, under the same small overrides. Both sides
// run the table-backed systems on the full-resolution table: sweep builds
// its own, and the served side runs one built here from
// acasx.DefaultConfig(), so a sweep on any other table fails.
func TestOnePathParity(t *testing.T) {
	cfg := acasx.DefaultConfig()
	cfg.Workers = runtime.NumCPU()
	table, err := acasx.BuildTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	systems := campaign.DefaultSystems(table)
	for name, overrides := range map[string][]string{
		"sweep-demo":    {"campaign.samples=4", "campaign.seed=3"},
		"backends-demo": {"campaign.samples=3"},
		"faults-demo":   {"campaign.samples=3"},
		"multi-demo":    {"campaign.samples=3", "campaign.seed=5"},
		"rare-demo":     {"campaign.samples=150"},
		"montecarlo":    {"campaign.samples=200"},
	} {
		file := filepath.Join("..", "..", "params", name+".params")
		base := filepath.Join(t.TempDir(), name)
		if err := run(append([]string{"-spec", file, "-out", base}, overrides...), io.Discard); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		job := serveJob(t, systems, serve.KindCampaign, specText(t, file, overrides))
		sameArtifacts(t, base, job, ".jsonl", ".summary.txt")
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

// sameArtifacts fails unless both artifact bases hold byte-identical
// files under every suffix.
func sameArtifacts(t *testing.T, got, want string, suffixes ...string) {
	t.Helper()
	for _, suffix := range suffixes {
		a, err := os.ReadFile(got + suffix)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(want + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s%s differs from %s%s:\n%s\nvs\n%s", got, suffix, want, suffix, a, b)
		}
	}
}
