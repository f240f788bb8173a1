package acasxval

import (
	"context"
	"testing"

	"acasxval/internal/campaign"
	"acasxval/internal/encounter"
	"acasxval/internal/montecarlo"
)

// TestEstimateRareRiskFacade drives every estimator method through the
// facade against the default model and checks the brute-force arm matches
// EstimateRiskContext exactly.
func TestEstimateRareRiskFacade(t *testing.T) {
	cfg := DefaultMonteCarloConfig()
	cfg.Samples = 40
	cfg.Seed = 9
	model := DefaultEncounterModel()
	brute, err := EstimateRiskContext(context.Background(), model, Unequipped, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range montecarlo.Methods() {
		spec := DefaultRareEventSpec(method)
		est, err := EstimateMultiRareRiskContext(context.Background(), MultiEncounterModel{Intruders: []EncounterModel{model}}, Unequipped, cfg, spec)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if est.PNMAC < 0 || est.PNMAC > 1 {
			t.Errorf("%s: P(NMAC) = %v outside [0, 1]", method, est.PNMAC)
		}
		if method == "bruteforce" && *est != *brute {
			t.Errorf("bruteforce estimator differs from EstimateRiskContext\n got: %+v\nwant: %+v", est, brute)
		}
	}
}

// TestShippedRareDemoSpec: the shipped rare-event demo campaign must load
// with the full estimator axis, archive-style kernels and a splitting
// ladder, alongside the unequipped baseline for context.
func TestShippedRareDemoSpec(t *testing.T) {
	spec, err := loadSpec("params/rare-demo.params", campaign.FromConfig)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(spec.Estimators), len(montecarlo.Methods()); got != want {
		t.Errorf("demo campaign runs %d estimators, want all %d", got, want)
	}
	if len(spec.EstimatorSpec.Kernels) < 2 {
		t.Errorf("demo campaign ships %d proposal kernels, want >= 2", len(spec.EstimatorSpec.Kernels))
	}
	if len(spec.EstimatorSpec.Levels) < 2 {
		t.Errorf("demo campaign ships %d splitting levels, want >= 2", len(spec.EstimatorSpec.Levels))
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

// TestArchiveProposalKernels: archive entries round-trip into kernel rows
// usable by the importance-sampling estimators.
func TestArchiveProposalKernels(t *testing.T) {
	headon, err := encounter.Preset("headon")
	if err != nil {
		t.Fatal(err)
	}
	entries := []DangerArchiveEntry{
		{Name: "a", Fitness: 1, Params: headon.Vector()},
	}
	kernels, err := ArchiveProposalKernels(entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(kernels) != 1 || len(kernels[0]) != len(headon.Vector()) {
		t.Fatalf("kernels %v, want one row of %d genes", kernels, len(headon.Vector()))
	}
	spec := DefaultRareEventSpec("is")
	spec.Kernels = kernels
	cfg := DefaultMonteCarloConfig()
	cfg.Samples = 40
	cfg.Seed = 9
	est, err := EstimateMultiRareRiskContext(context.Background(), MultiEncounterModel{Intruders: []EncounterModel{DefaultEncounterModel()}}, Unequipped, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if est.ESS <= 0 {
		t.Errorf("archive-steered IS reported ESS %v, want > 0", est.ESS)
	}
}
