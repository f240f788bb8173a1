package acasxval

// Guards the shipped ECJ-style parameter files: they must parse and produce
// valid GA configurations.

import (
	"path/filepath"
	"testing"

	"acasxval/internal/config"
	"acasxval/internal/ga"
)

func TestShippedParameterFiles(t *testing.T) {
	cases := []struct {
		file    string
		wantPop int
		wantGen int
	}{
		{"section7.params", 200, 5},
		{"quick.params", 40, 5},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			params, err := config.Load(filepath.Join("params", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			gaParams, err := ga.FromConfig(params)
			if err != nil {
				t.Fatal(err)
			}
			if gaParams.PopulationSize != tc.wantPop {
				t.Errorf("pop = %d, want %d", gaParams.PopulationSize, tc.wantPop)
			}
			if gaParams.Generations != tc.wantGen {
				t.Errorf("generations = %d, want %d", gaParams.Generations, tc.wantGen)
			}
			// Inherited operator settings from base.params.
			if gaParams.Selection != ga.Tournament || gaParams.Crossover != ga.OnePoint {
				t.Errorf("operators not inherited: %+v", gaParams)
			}
			if err := gaParams.Validate(); err != nil {
				t.Errorf("invalid params: %v", err)
			}
		})
	}
}

// loadSpec parses a params file through a spec decoder
// (campaign.FromConfig, search.FromConfig), as the commands do.
func loadSpec[S any](path string, decode func(*config.Params) (S, error)) (S, error) {
	params, err := config.Load(path)
	if err != nil {
		var zero S
		return zero, err
	}
	return decode(params)
}
