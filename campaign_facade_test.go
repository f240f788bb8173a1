package acasxval

// Campaign-engine coverage through the public facade: the shipped demo spec
// must load and satisfy the sweep acceptance floor, and a small campaign
// must run end to end with the table-driven logic.

import (
	"bytes"
	"context"
	"testing"
)

func TestShippedSweepDemoSpec(t *testing.T) {
	spec, err := LoadCampaignSpec("params/sweep-demo.params")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Presets) < 6 {
		t.Errorf("demo campaign sweeps %d presets, want >= 6", len(spec.Presets))
	}
	if len(spec.Systems) < 2 {
		t.Errorf("demo campaign tests %d systems, want >= 2", len(spec.Systems))
	}
	hasBaseline := false
	for _, s := range spec.Systems {
		if s == "none" {
			hasBaseline = true
		}
	}
	if !hasBaseline {
		t.Error("demo campaign lacks the unequipped baseline; risk ratios would be undefined")
	}
}

func TestRunCampaignThroughFacade(t *testing.T) {
	table := facadeLogicTable(t)
	spec := DefaultCampaignSpec()
	spec.Presets = []string{"headon", "tailchase", "offsethead"}
	spec.Systems = []string{"none", "acasx"}
	spec.Samples = 6
	spec.Seed = 21

	var jsonl bytes.Buffer
	res, err := RunCampaignContext(context.Background(), spec, DefaultCampaignSystems(table), &jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * 2; len(res.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(res.Cells), want)
	}
	if jsonl.Len() == 0 {
		t.Error("no JSONL output")
	}
	// The equipped system must rank ahead of the baseline on these
	// conflict geometries.
	if len(res.Summaries) != 2 {
		t.Fatalf("got %d summaries, want 2", len(res.Summaries))
	}
	if res.Summaries[0].System != "acasx" {
		t.Errorf("top-ranked system = %q, want acasx\n%s", res.Summaries[0].System, res.SummaryTable())
	}
}

func TestEncounterPresetsThroughFacade(t *testing.T) {
	names := EncounterPresetNames()
	if len(names) < 7 {
		t.Fatalf("%d presets, want >= 7", len(names))
	}
	for _, name := range names {
		if _, err := EncounterPreset(name); err != nil {
			t.Errorf("EncounterPreset(%q): %v", name, err)
		}
	}
}
