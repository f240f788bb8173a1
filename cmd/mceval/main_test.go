package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"acasxval/internal/campaign"
	"acasxval/internal/montecarlo"
	"acasxval/internal/serve"
)

// TestRareRunDefault: with no arguments mceval runs plain Monte Carlo over
// the default config for acasx, svo and the unequipped baseline.
func TestRareRunDefault(t *testing.T) {
	job, _, err := rareRun(nil, "")
	if err != nil {
		t.Fatal(err)
	}
	want := montecarlo.RareJob{Name: "rare", Systems: []string{"acasx", "svo", "none"}, Config: montecarlo.DefaultConfig()}
	if !reflect.DeepEqual(job, want) {
		t.Errorf("default run: %+v", job)
	}
}

// TestRareRunOverrides: a later argument overrides an earlier one, and
// rare.system replaces the default list.
func TestRareRunOverrides(t *testing.T) {
	job, preset, err := rareRun([]string{"rare.samples=3", "rare.samples=4", "rare.method=split", "rare.levels=800,400,160", "rare.seed=9",
		"rare.system=svo", "rare.faults.preset=light"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if job.Config.Samples != 4 || job.Config.Seed != 9 || job.Spec.Method != "split" || !reflect.DeepEqual(job.Spec.Levels, []float64{800, 400, 160}) ||
		!reflect.DeepEqual(job.Systems, []string{"svo"}) || preset != "light" || !job.Config.Run.Faults.Enabled() {
		t.Errorf("overrides: %+v (preset %q)", job, preset)
	}
}

// TestRareRunErrors: an unknown key or a malformed argument fails naming
// it, estimator tuning or an archive proposal needs rare.method, and
// out-of-range values fail through RareEventSpec.Validate.
func TestRareRunErrors(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		archive string
		want    string
	}{
		{[]string{"rare.sampels=3"}, "", "rare.sampels"},
		{[]string{"campaign.seed=3"}, "", "campaign.seed"},
		{[]string{"rare.samples"}, "", `"rare.samples"`},
		{[]string{"rare.defensive=0.3"}, "", "rare.method"},
		{nil, "danger.jsonl", "rare.method"},
		{[]string{"rare.method=is", "rare.defensive=2"}, "", "defensive weight 2"},
		{[]string{"rare.method=nosuch"}, "", "nosuch"},
		{[]string{"rare.faults.presett=severe"}, "", "rare.faults.presett"},
		{[]string{"rare.faults.preset=nosuch"}, "", "nosuch"},
	} {
		if _, _, err := rareRun(tc.args, tc.archive); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q (archive %q): err %v, want one containing %s", tc.args, tc.archive, err, tc.want)
		}
	}
}

// TestOnePathParity: a faulted two-system rare job writes the same
// result and summary through mceval -out at one and two workers and as a
// caserve job, and the faults change the estimates of the clean job with
// the same seed.
func TestOnePathParity(t *testing.T) {
	keys := []string{"rare.system=svo,none", "rare.faults.preset=severe", "rare.samples=300", "rare.seed=3"}
	dir := t.TempDir()
	for _, workers := range []string{"1", "2"} {
		if err := run(append([]string{"-workers", workers, "-out", filepath.Join(dir, workers)}, keys...), io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	cli := filepath.Join(dir, "1")
	sameArtifacts(t, filepath.Join(dir, "2"), cli, ".result.json", ".summary.txt")
	systems := campaign.DefaultSystems(nil)
	sameArtifacts(t, serveJob(t, systems, serve.KindRare, strings.Join(keys, "\n")), cli, ".result.json", ".summary.txt")

	clean := serveJob(t, systems, serve.KindRare, strings.Join(append(keys[:1:1], keys[2:]...), "\n"))
	a, _ := os.ReadFile(clean + ".result.json")
	b, _ := os.ReadFile(cli + ".result.json")
	if len(a) == 0 || bytes.Equal(a, b) {
		t.Errorf("the severe profile left the estimates unchanged:\n%s", a)
	}
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
