package main

import (
	"path/filepath"
	"strings"
	"testing"
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
}
