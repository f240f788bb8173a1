package acasxval

// Multi-intruder coverage through the public facade: the shipped
// multi-demo spec must drive both a K-intruder campaign sweep and a K=2
// island search end to end, the K=1 multi path must be byte-identical to
// the classic pairwise entry points, and the danger-archive loop must
// round-trip K=2 scenarios.

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"acasxval/internal/campaign"
	"acasxval/internal/encounter"
	"acasxval/internal/search"
	"acasxval/internal/sim"
)

func TestMultiPresetsThroughFacade(t *testing.T) {
	names := MultiEncounterPresetNames()
	if len(names) < 3 {
		t.Fatalf("%d multi presets, want >= 3", len(names))
	}
	for _, name := range names {
		m, err := MultiEncounterPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.NumIntruders() < 2 {
			t.Errorf("%s has %d intruders, want >= 2", name, m.NumIntruders())
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Pairwise preset names resolve through the same lookup as K = 1.
	m, err := MultiEncounterPreset("headon")
	if err != nil {
		t.Fatal(err)
	}
	if m.NumIntruders() != 1 || m.Intruders[0] != PresetHeadOn() {
		t.Errorf("pairwise preset through MultiEncounterPreset = %+v", m)
	}
}

func TestRunMultiEncounterPairwiseIdentity(t *testing.T) {
	table := facadeLogicTable(t)
	cfg := DefaultRunConfig()
	for _, seed := range []uint64{3, 99} {
		want, err := RunEncounter(encounter.PresetCrossing(), sim.NewACASXU(table), sim.NewACASXU(table), cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunMultiEncounter(encounter.PresetCrossing().Multi(),
			[]System{sim.NewACASXU(table), sim.NewACASXU(table)}, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: K=1 multi run differs from pairwise\n got: %+v\nwant: %+v", seed, got, want)
		}
	}
}

func TestShippedMultiDemoSpec(t *testing.T) {
	spec, err := loadSpec("params/multi-demo.params", campaign.FromConfig)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Intruders != 2 {
		t.Errorf("campaign intruders = %d, want 2", spec.Intruders)
	}
	multi := 0
	for _, name := range spec.Presets {
		m, err := MultiEncounterPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.NumIntruders() > 1 {
			multi++
		}
	}
	if multi < 3 {
		t.Errorf("multi-demo campaign sweeps %d multi-intruder presets, want >= 3", multi)
	}

	sspec, err := loadSpec("params/multi-demo.params", search.FromConfig)
	if err != nil {
		t.Fatal(err)
	}
	if sspec.NumIntruders() != 2 {
		t.Errorf("search intruders = %d, want 2", sspec.NumIntruders())
	}
	if sspec.GenomeLen() != 18 {
		t.Errorf("search genome length = %d, want 18", sspec.GenomeLen())
	}
}

// TestMultiDemoEndToEnd drives the acceptance loop from the shipped params
// file: a K-intruder campaign sweep, a K=2 island search, and the search's
// danger archive replayed as explicit campaign scenarios.
func TestMultiDemoEndToEnd(t *testing.T) {
	spec, err := loadSpec("params/multi-demo.params", campaign.FromConfig)
	if err != nil {
		t.Fatal(err)
	}
	var buf1, buf2 bytes.Buffer
	res, err := RunCampaignContext(context.Background(), spec, DefaultCampaignSystems(nil), &buf1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCampaignContext(context.Background(), spec, DefaultCampaignSystems(nil), &buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Error("multi-demo campaign JSONL is not reproducible byte for byte")
	}
	// 4 presets + 2 model draws, against 2 systems.
	if len(res.Cells) != 12 {
		t.Fatalf("%d cells, want 12", len(res.Cells))
	}
	sawMulti := false
	for _, c := range res.Cells {
		m, err := c.MultiEncounterParams()
		if err != nil {
			t.Fatal(err)
		}
		if m.NumIntruders() > 1 {
			sawMulti = true
		}
	}
	if !sawMulti {
		t.Error("no multi-intruder cells in the multi-demo sweep")
	}

	sspec, err := loadSpec("params/multi-demo.params", search.FromConfig)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := RunSearchContext(context.Background(), sspec, Unequipped, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sres.Best.Params.NumIntruders(); got != 2 {
		t.Fatalf("best genome decodes to %d intruders, want 2", got)
	}
	if sres.Archive.Len() == 0 {
		t.Fatal("K=2 search against the unequipped baseline archived nothing")
	}

	// Close the loop: the K=2 archive, written and read back as JSONL,
	// replays as campaign scenarios.
	var archive bytes.Buffer
	if err := sres.Archive.WriteJSONL(&archive); err != nil {
		t.Fatal(err)
	}
	entries, _, err := search.LoadArchive(&archive)
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := ArchiveCampaignScenarios(entries)
	if err != nil {
		t.Fatal(err)
	}
	replay := spec
	replay.Presets = nil
	replay.ModelDraws = 0
	replay.Scenarios = scenarios
	replay.Samples = 2
	rres, err := RunCampaignContext(context.Background(), replay, DefaultCampaignSystems(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rres.Cells) != len(scenarios)*2 {
		t.Errorf("%d replay cells, want %d", len(rres.Cells), len(scenarios)*2)
	}
	for _, c := range rres.Cells {
		m, err := c.MultiEncounterParams()
		if err != nil {
			t.Fatal(err)
		}
		if m.NumIntruders() != 2 {
			t.Errorf("replayed scenario %s has %d intruders, want 2", c.Scenario, m.NumIntruders())
		}
	}
}

func TestEstimateMultiRiskMatchesPairwiseForOneIntruder(t *testing.T) {
	cfg := DefaultMonteCarloConfig()
	cfg.Samples = 30
	cfg.Seed = 13
	want, err := EstimateRiskContext(context.Background(), DefaultEncounterModel(), Unequipped, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EstimateMultiRareRiskContext(context.Background(), DefaultMultiEncounterModel(1), Unequipped, cfg, RareEventSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("K=1 multi estimate differs from pairwise\n got: %+v\nwant: %+v", got, want)
	}
}
