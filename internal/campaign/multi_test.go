package campaign

// Multi-intruder campaign coverage: the mixed preset axis, the
// campaign.intruders model-draw knob, and the K-block cell records.

import (
	"context"
	"strings"
	"testing"

	"acasxval/internal/config"
	"acasxval/internal/encounter"
)

func TestMultiPresetAxisMixesPairwiseAndMulti(t *testing.T) {
	s := DefaultSpec()
	s.Presets = []string{"headon", "sandwich", "crossstream"}
	s.Systems = []string{"none"}
	s.Samples = 2
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), s, DefaultSystems(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantK := map[string]int{"headon": 1, "sandwich": 2, "crossstream": 3}
	for _, c := range res.Cells {
		m, err := c.MultiEncounterParams()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.NumIntruders(); got != wantK[c.Scenario] {
			t.Errorf("%s: %d intruders, want %d", c.Scenario, got, wantK[c.Scenario])
		}
		if wantK[c.Scenario] > 1 {
			if _, err := encounter.FromVector(c.Params); err == nil {
				t.Errorf("%s: pairwise decode of a multi cell did not error", c.Scenario)
			}
		}
	}
}

func TestModelDrawIntruders(t *testing.T) {
	c, err := config.Parse(`
campaign.name = multidraw
campaign.model.draws = 2
campaign.intruders = 3
campaign.systems = none
campaign.samples = 2
campaign.seed = 4
`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.Intruders != 3 {
		t.Fatalf("intruders = %d, want 3", s.Intruders)
	}
	res, err := RunContext(context.Background(), s, DefaultSystems(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The spec inherits the default pairwise presets (no campaign.presets
	// key), so the intruder knob must widen the model draws to K blocks
	// while leaving the preset cells at their own K of 1.
	draws := 0
	for _, cell := range res.Cells {
		want := encounter.NumParams
		if strings.HasPrefix(cell.Scenario, "model/") {
			want = 3 * encounter.NumParams
			draws++
		}
		if len(cell.Params) != want {
			t.Errorf("%s: %d params, want %d", cell.Scenario, len(cell.Params), want)
		}
	}
	if draws != 2 {
		t.Errorf("%d model-draw cells, want 2", draws)
	}

	s.Intruders = -1
	if s.Validate() == nil {
		t.Error("negative intruder count accepted")
	}
}
