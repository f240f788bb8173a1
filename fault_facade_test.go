package acasxval

// Degraded-surveillance coverage through the public facade: preset lookup,
// faulted encounter runs, the Monte-Carlo path under a lossy channel, and
// the campaign fault axis.

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"acasxval/internal/sim"
)

func TestFaultPresetsThroughFacade(t *testing.T) {
	names := FaultPresetNames()
	if len(names) < 4 {
		t.Fatalf("%d fault presets, want >= 4", len(names))
	}
	severity := map[string]float64{}
	for _, name := range names {
		p, err := FaultPreset(name)
		if err != nil {
			t.Fatalf("FaultPreset(%q): %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
		severity[name] = p.Severity()
	}
	// The named severity ladder must actually be a ladder.
	if !(severity["none"] == 0 && severity["light"] > 0 &&
		severity["light"] < severity["moderate"] && severity["moderate"] < severity["severe"]) {
		t.Errorf("preset severities out of order: %v", severity)
	}
	if _, err := FaultPreset("blizzard"); err == nil {
		t.Error("unknown preset accepted")
	}
	var clean FaultProfile
	if clean.Enabled() {
		t.Error("zero FaultProfile reports Enabled")
	}
}

func TestFaultedEncounterThroughFacade(t *testing.T) {
	table := facadeLogicTable(t)
	severe, err := FaultPreset("severe")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRunConfig()
	cfg.Faults = severe

	// Deterministic: same profile, same seed, same bytes.
	a, err := RunEncounter(PresetHeadOn(), sim.NewACASXU(table), sim.NewACASXU(table), cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEncounter(PresetHeadOn(), sim.NewACASXU(table), sim.NewACASXU(table), cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("faulted runs with identical seeds diverge")
	}

	// The degradation must actually reach the closed loop: a clean run of
	// the same encounter under the same seed behaves differently.
	clean, err := RunEncounter(PresetHeadOn(), sim.NewACASXU(table), sim.NewACASXU(table), DefaultRunConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, clean) {
		t.Error("severe degradation left the encounter outcome untouched")
	}
}

func TestFaultedRiskEstimateThroughFacade(t *testing.T) {
	cfg := DefaultMonteCarloConfig()
	cfg.Samples = 60
	cfg.Seed = 7
	factory := func() (System, System) { return NoAvoidance(), NoAvoidance() }

	severe, err := FaultPreset("severe")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Run.Faults = severe
	faulted, err := EstimateRiskContext(context.Background(), DefaultEncounterModel(), factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Run.Faults = FaultProfile{}
	clean, err := EstimateRiskContext(context.Background(), DefaultEncounterModel(), factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Unequipped aircraft never consume measurements, so the same episodes
	// must collide identically — the fault layer cannot perturb dynamics.
	if faulted.PNMAC != clean.PNMAC {
		t.Errorf("faults changed the unequipped P(NMAC): %v vs %v", faulted.PNMAC, clean.PNMAC)
	}
}

func TestCampaignFaultAxisThroughFacade(t *testing.T) {
	moderate, err := FaultPreset("moderate")
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultCampaignSpec()
	spec.Presets = []string{"headon", "tailchase"}
	spec.Systems = []string{"none", "svo"}
	spec.Samples = 6
	spec.Seed = 33
	spec.Faults = []CampaignFaultPoint{
		{Name: "none"},
		{Name: "moderate", Profile: moderate},
	}

	var jsonl bytes.Buffer
	res, err := RunCampaignContext(context.Background(), spec, DefaultCampaignSystems(nil), &jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2; len(res.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(res.Cells), want)
	}
	faults := map[string]bool{}
	for _, c := range res.Cells {
		faults[c.Fault] = true
	}
	if !faults[""] || !faults["moderate"] {
		t.Errorf("fault labels %v, want both the clean point and \"moderate\"", faults)
	}
	if len(res.Summaries) != 4 {
		t.Fatalf("got %d summaries, want 4 (2 systems x 2 fault points)", len(res.Summaries))
	}
}
