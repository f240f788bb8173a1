package campaign

import (
	"bytes"
	"context"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"acasxval/internal/encounter"
)

var update = flag.Bool("update", false, "rewrite golden files instead of comparing")

// goldenSpec is a tiny fixed campaign whose JSONL stream is pinned in
// testdata: it guards the record layout, the cell ordering and the
// seed-derivation chain against unintended drift.
func goldenSpec() Spec {
	s := DefaultSpec()
	s.Name = "golden"
	s.Presets = []string{"headon", "tailchase"}
	s.Scenarios = []Scenario{{Name: "custom", Params: encounter.PresetCrossing().Multi()}}
	s.ModelDraws = 1
	s.Systems = []string{"none", "svo"}
	s.Samples = 3
	s.Seed = 5
	return s
}

// TestGoldenCells pins the campaign JSONL byte stream. Regenerate with
// `go test ./internal/campaign -run Golden -update` after an intentional
// format or trajectory change.
func TestGoldenCells(t *testing.T) {
	var out bytes.Buffer
	if _, err := RunContext(context.Background(), goldenSpec(), DefaultSystems(nil), &out); err != nil {
		t.Fatal(err)
	}
	got := out.Bytes()

	golden := filepath.Join("testdata", "golden_cells.jsonl")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("campaign JSONL drifted from golden file\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestAxisGrowthKeepsCellResults: appending scenarios (the sweep -extra
// path) must not change the stochastic results of pre-existing cells —
// cell seeds derive from (scenario, system, variant) identity, not from
// the ordinal cell index.
func TestAxisGrowthKeepsCellResults(t *testing.T) {
	base := goldenSpec()
	grown := goldenSpec()
	grown.Scenarios = append(grown.Scenarios,
		Scenario{Name: "appended", Params: encounter.PresetOvertake().Multi()})

	baseRes, err := RunContext(context.Background(), base, DefaultSystems(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	grownRes, err := RunContext(context.Background(), grown, DefaultSystems(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ scenario, system, variant string }
	grownCells := make(map[key]CellResult, len(grownRes.Cells))
	for _, c := range grownRes.Cells {
		grownCells[key{c.Scenario, c.System, c.Variant}] = c
	}
	for _, want := range baseRes.Cells {
		got, ok := grownCells[key{want.Scenario, want.System, want.Variant}]
		if !ok {
			t.Fatalf("cell %s/%s/%s missing from grown campaign", want.Scenario, want.System, want.Variant)
		}
		// Everything except the ordinal index must be identical.
		got.Index = want.Index
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cell %s/%s/%s changed when the axis grew:\ngot  %+v\nwant %+v",
				want.Scenario, want.System, want.Variant, got, want)
		}
	}
}

func TestExplicitScenarios(t *testing.T) {
	s := goldenSpec()
	res, err := RunContext(context.Background(), s, DefaultSystems(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	// (2 presets + 1 scenario + 1 draw) x 2 systems x 1 variant.
	if len(res.Cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(res.Cells))
	}
	found := false
	for _, c := range res.Cells {
		if len(c.Params) != encounter.NumParams {
			t.Fatalf("cell %d has %d params, want %d", c.Index, len(c.Params), encounter.NumParams)
		}
		p, err := encounter.FromVector(c.Params)
		if err != nil {
			t.Fatal(err)
		}
		if got := encounter.Classify(p).Category.String(); got != c.Geometry {
			t.Errorf("cell %d geometry %q does not match params classification %q", c.Index, c.Geometry, got)
		}
		if c.Scenario == "custom" {
			found = true
			want := encounter.PresetCrossing().Vector()
			for i, g := range c.Params {
				if g != want[i] {
					t.Errorf("custom scenario param %d = %v, want %v", i, g, want[i])
				}
			}
		}
	}
	if !found {
		t.Error("explicit scenario missing from the cell stream")
	}

	bad := []func(*Spec){
		func(s *Spec) { s.Scenarios = []Scenario{{Name: ""}} },
		func(s *Spec) { s.Scenarios = append(s.Scenarios, s.Scenarios[0]) },
		func(s *Spec) { s.Scenarios = []Scenario{{Name: "headon"}} }, // clashes with preset
		func(s *Spec) {
			p := encounter.PresetCrossing()
			p.TimeToCPA = math.NaN()
			s.Scenarios = []Scenario{{Name: "nan", Params: p.Multi()}}
		},
	}
	for i, mutate := range bad {
		s := goldenSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted an invalid scenario axis", i)
		}
	}
	only := goldenSpec()
	only.Presets = nil
	only.ModelDraws = 0
	if err := only.Validate(); err != nil {
		t.Errorf("scenario-only campaign rejected: %v", err)
	}
}
