package acasxval

// Cross-product sanity sweep: every registered system (unequipped baseline,
// SVO, and both table executives — the direct logic and the belief-weighted
// executive) against every shipped encounter preset under both coordination
// modes. Each combination must simulate cleanly, every reported risk number
// must be finite, and the encounter's geometry classification must
// round-trip through the danger-archive JSONL format.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"acasxval/internal/search"
)

// finite fails the test when any value is NaN or infinite.
func finite(t *testing.T, what string, xs ...float64) {
	t.Helper()
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Errorf("%s[%d] = %v, want finite", what, i, x)
		}
	}
}

func TestCrossProductSimulatesCleanly(t *testing.T) {
	table := facadeLogicTable(t)
	systems := DefaultCampaignSystems(table)
	executives := []struct {
		name         string
		coordination bool
	}{
		{"coordinated", true},
		{"uncoordinated", false},
	}

	for _, sysName := range systems.Names() {
		factory := systems[sysName]
		for _, presetName := range EncounterPresetNames() {
			preset, err := EncounterPreset(presetName)
			if err != nil {
				t.Fatal(err)
			}
			for _, exec := range executives {
				t.Run(fmt.Sprintf("%s/%s/%s", sysName, presetName, exec.name), func(t *testing.T) {
					cfg := DefaultRunConfig()
					cfg.Coordination = exec.coordination

					own, intruder := factory()
					res, err := RunEncounter(preset, own, intruder, cfg, 42)
					if err != nil {
						t.Fatal(err)
					}
					finite(t, "run result", res.MinSeparation, res.MinHorizontal,
						res.MinVertical, res.MinSeparationAt, res.NMACTime)
					if res.MinSeparation < 0 || res.MinHorizontal < 0 || res.MinVertical < 0 {
						t.Errorf("negative separation: %v / %v / %v",
							res.MinSeparation, res.MinHorizontal, res.MinVertical)
					}

					// The Monte-Carlo risk numbers for the same fixed
					// scenario must be finite and in range too.
					est, err := EstimateRiskContext(context.Background(), PointEncounterModel(preset),
						factory, MonteCarloConfig{
							Samples: 4,
							Run:     cfg,
							Seed:    7,
						})
					if err != nil {
						t.Fatal(err)
					}
					finite(t, "estimate", est.PNMAC, est.AlertRate, est.MeanAlerts,
						est.MeanMinSeparation, est.MeanInverseSeparation)
					if est.PNMAC < 0 || est.PNMAC > 1 {
						t.Errorf("P(NMAC) = %v outside [0, 1]", est.PNMAC)
					}
					if est.MeanInverseSeparation <= 0 || est.MeanInverseSeparation > 1 {
						t.Errorf("mean inverse separation = %v outside (0, 1]", est.MeanInverseSeparation)
					}

					// Geometry labels must round-trip through the archive
					// format: write the encounter as an archive entry,
					// reload it, and re-derive the classification from the
					// reloaded parameters.
					wantLabel := Classify(preset).Category.String()
					entry := DangerArchiveEntry{
						Name:     "t/0000",
						Fitness:  10000 * est.MeanInverseSeparation,
						PNMAC:    est.PNMAC,
						Geometry: wantLabel,
						Params:   preset.Vector(),
					}
					line, err := json.Marshal(entry)
					if err != nil {
						t.Fatal(err)
					}
					loaded, err := search.LoadArchive(bytes.NewReader(append(line, '\n')))
					if err != nil {
						t.Fatal(err)
					}
					if len(loaded) != 1 {
						t.Fatalf("archive round trip returned %d entries", len(loaded))
					}
					if loaded[0].Geometry != wantLabel {
						t.Errorf("stored geometry label %q, want %q", loaded[0].Geometry, wantLabel)
					}
					p, err := loaded[0].EncounterParams()
					if err != nil {
						t.Fatal(err)
					}
					if got := Classify(p).Category.String(); got != wantLabel {
						t.Errorf("reloaded params classify as %q, want %q", got, wantLabel)
					}
				})
			}
		}
	}
}
