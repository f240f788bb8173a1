package main

import (
	"reflect"
	"strings"
	"testing"

	"acasxval/internal/montecarlo"
)

// TestRareRunDefault: with no arguments mceval runs plain Monte Carlo
// over the default config.
func TestRareRunDefault(t *testing.T) {
	spec, cfg, err := rareRun(nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, montecarlo.RareEventSpec{}) || !reflect.DeepEqual(cfg, montecarlo.DefaultConfig()) {
		t.Errorf("default run: %+v %+v", spec, cfg)
	}
}

// TestRareRunOverrides: a later argument overrides an earlier one.
func TestRareRunOverrides(t *testing.T) {
	spec, cfg, err := rareRun([]string{"rare.samples=3", "rare.samples=4", "rare.method=split", "rare.levels=800,400,160", "rare.seed=9"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Samples != 4 || cfg.Seed != 9 || spec.Method != "split" || !reflect.DeepEqual(spec.Levels, []float64{800, 400, 160}) {
		t.Errorf("overrides: %+v %+v", spec, cfg)
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
	} {
		if _, _, err := rareRun(tc.args, tc.archive); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q (archive %q): err %v, want one containing %s", tc.args, tc.archive, err, tc.want)
		}
	}
}
