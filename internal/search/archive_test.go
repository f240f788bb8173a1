package search

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"acasxval/internal/campaign"
	"acasxval/internal/encounter"
	"acasxval/internal/ga"
)

func testBounds(t *testing.T) ga.Bounds {
	t.Helper()
	lo, hi := encounter.DefaultRanges().Bounds()
	b, err := ga.NewBounds(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// entryAt builds a valid archive candidate from a preset, nudged by eps on
// the own ground speed so callers can control geometric distance.
func entryAt(t *testing.T, fitness, eps float64) ArchiveEntry {
	t.Helper()
	p := encounter.PresetHeadOn()
	p.OwnGroundSpeed += eps
	return ArchiveEntry{
		Fitness:  fitness,
		PNMAC:    0.5,
		Geometry: encounter.Classify(p).Category.String(),
		Params:   p.Vector(),
	}
}

func TestArchiveThresholdAndDedup(t *testing.T) {
	a := NewArchive(1000, 0.05, testBounds(t))
	if a.Add(entryAt(t, 999, 0)) {
		t.Error("sub-threshold entry admitted")
	}
	if !a.Add(entryAt(t, 1500, 0)) {
		t.Error("first above-threshold entry rejected")
	}
	// A near-duplicate (tiny nudge) with lower fitness is dropped...
	if a.Add(entryAt(t, 1200, 0.01)) {
		t.Error("less fit near-duplicate admitted")
	}
	if a.Len() != 1 {
		t.Fatalf("archive has %d entries, want 1", a.Len())
	}
	// ...and a fitter near-duplicate replaces in place, keeping the name.
	name := a.Entries()[0].Name
	if !a.Add(entryAt(t, 2000, 0.01)) {
		t.Error("fitter near-duplicate rejected")
	}
	if a.Len() != 1 {
		t.Fatalf("replacement grew the archive to %d entries", a.Len())
	}
	if got := a.Entries()[0]; got.Name != name || got.Fitness != 2000 {
		t.Errorf("replacement entry = %+v, want name %q fitness 2000", got, name)
	}
	// A genuinely distant geometry gets its own slot and a fresh name.
	far := entryAt(t, 1500, 0)
	tail := encounter.PresetTailApproach()
	far.Params = tail.Vector()
	far.Geometry = encounter.Classify(tail).Category.String()
	if !a.Add(far) {
		t.Error("distant entry rejected")
	}
	if a.Len() != 2 {
		t.Fatalf("archive has %d entries, want 2", a.Len())
	}
	if a.Entries()[0].Name == a.Entries()[1].Name {
		t.Error("distinct entries share a name")
	}
}

// TestArchiveMergeOnReplace: a candidate near several existing entries is
// admitted only when fitter than all of them, and then absorbs them — the
// archive never holds two geometries closer than the dedup distance.
func TestArchiveMergeOnReplace(t *testing.T) {
	// Gene 0 spans [20, 60] over 9 dims: a nudge of d moves the
	// normalized distance by d/40/3, so with mindist 0.05 two entries 7
	// apart are distinct while one 3.5 from both is near each.
	a := NewArchive(1000, 0.05, testBounds(t))
	if !a.Add(entryAt(t, 1500, 0)) || !a.Add(entryAt(t, 1600, 7)) {
		t.Fatal("distinct entries rejected")
	}
	if a.Len() != 2 {
		t.Fatalf("archive has %d entries, want 2", a.Len())
	}
	// Near both, but not fitter than both: rejected outright.
	if a.Add(entryAt(t, 1550, 3.5)) {
		t.Error("candidate admitted despite a fitter neighbor")
	}
	if a.Len() != 2 {
		t.Fatalf("rejected candidate changed the archive to %d entries", a.Len())
	}
	// Fitter than both neighbors: takes the first slot, absorbs the rest.
	firstName := a.Entries()[0].Name
	if !a.Add(entryAt(t, 2000, 3.5)) {
		t.Error("dominating candidate rejected")
	}
	if a.Len() != 1 {
		t.Fatalf("merge left %d entries, want 1", a.Len())
	}
	if got := a.Entries()[0]; got.Name != firstName || got.Fitness != 2000 {
		t.Errorf("merged entry = %+v, want name %q fitness 2000", got, firstName)
	}
}

func TestArchiveJSONLRoundTrip(t *testing.T) {
	a := NewArchive(1000, 0.05, testBounds(t))
	a.Add(entryAt(t, 1500, 0))
	far := entryAt(t, 3000, 0)
	tail := encounter.PresetTailApproach()
	far.Params = tail.Vector()
	far.Geometry = encounter.Classify(tail).Category.String()
	far.Island, far.Generation, far.Index = 2, 3, 4
	a.Add(far)

	var buf bytes.Buffer
	if err := a.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, a.Entries()) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", loaded, a.Entries())
	}

	scenarios, err := CampaignScenarios(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 2 {
		t.Fatalf("got %d scenarios, want 2", len(scenarios))
	}
	for i, sc := range scenarios {
		if sc.Name != loaded[i].Name {
			t.Errorf("scenario %d name %q, want %q", i, sc.Name, loaded[i].Name)
		}
		if !reflect.DeepEqual(sc.Params.Vector(), loaded[i].Params) {
			t.Errorf("scenario %d params differ", i)
		}
	}
	// The scenarios must be usable as a campaign's scenario axis.
	spec := campaign.DefaultSpec()
	spec.Presets = nil
	spec.Scenarios = scenarios
	if err := spec.Validate(); err != nil {
		t.Errorf("archive scenarios rejected by campaign validation: %v", err)
	}
}

// TestLoadArchiveCrashTail simulates a writer killed mid-record: the JSONL
// stream ends in a half-written line with no trailing newline. The complete
// prefix must load; the torn tail is skipped, not treated as corruption.
func TestLoadArchiveCrashTail(t *testing.T) {
	a := NewArchive(1000, 0.05, testBounds(t))
	a.Add(entryAt(t, 1500, 0))
	far := entryAt(t, 3000, 0)
	tail := encounter.PresetTailApproach()
	far.Params = tail.Vector()
	far.Geometry = encounter.Classify(tail).Category.String()
	a.Add(far)

	var buf bytes.Buffer
	if err := a.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Chop the stream mid-way through the final record.
	lines := bytes.SplitAfter(full, []byte("\n"))
	last := lines[len(lines)-2] // SplitAfter leaves a trailing empty slice
	torn := full[:len(full)-len(last)+len(last)/2]

	loaded, err := LoadArchive(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("LoadArchive on crash-tail stream: %v", err)
	}
	if want := a.Entries()[:1]; !reflect.DeepEqual(loaded, want) {
		t.Errorf("crash-tail load:\ngot  %+v\nwant %+v", loaded, want)
	}
}

func TestLoadArchiveRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":     "nope\n",
		"empty stream": "",
		"bad params":   `{"name":"x","fitness":1,"params":[1,2,3]}` + "\n",
		"nan fitness":  `{"name":"x","fitness":"NaN","params":[1,2,3,4,5,6,7,8,9]}` + "\n",
		"empty name":   `{"name":"","fitness":1,"params":[1,2,3,4,5,6,7,8,9]}` + "\n",
	}
	for name, text := range cases {
		if _, err := LoadArchive(strings.NewReader(text)); err == nil {
			t.Errorf("%s: LoadArchive accepted %q", name, text)
		}
	}
}

// sweepLine renders one campaign cell as a JSONL line.
func sweepLine(t *testing.T, index int, pnmac, minSep float64, params []float64) string {
	t.Helper()
	c := campaign.CellResult{
		Index:      index,
		Campaign:   "t",
		Scenario:   fmt.Sprintf("s%d", index),
		PNMAC:      pnmac,
		MeanMinSep: minSep,
		Params:     params,
	}
	line, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(line)
}

func TestSweepSeeds(t *testing.T) {
	p1 := encounter.PresetHeadOn().Vector()
	p2 := encounter.PresetTailApproach().Vector()
	p3 := encounter.PresetCrossing().Vector()
	lines := strings.Join([]string{
		sweepLine(t, 0, 0.1, 50, p1),
		sweepLine(t, 1, 0.9, 10, p2),
		sweepLine(t, 2, 0.9, 10, p2), // exact duplicate params: dropped
		sweepLine(t, 3, 0.5, 20, p3),
		`{"cell":4,"p_nmac":1.0}`, // pre-params record: skipped
	}, "\n") + "\n"

	seeds, err := SweepSeeds(strings.NewReader(lines), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{p2, p3, p1} // worst first by P(NMAC)
	if !reflect.DeepEqual(seeds, want) {
		t.Errorf("seeds = %v, want %v", seeds, want)
	}

	limited, err := SweepSeeds(strings.NewReader(lines), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 2 || !reflect.DeepEqual(limited[0], p2) {
		t.Errorf("limited seeds = %v", limited)
	}

	if _, err := SweepSeeds(strings.NewReader(`{"cell":0}`+"\n"), 0); err == nil {
		t.Error("SweepSeeds accepted a stream with no usable cells")
	}
	if _, err := SweepSeeds(strings.NewReader("garbage\n"), 0); err == nil {
		t.Error("SweepSeeds accepted malformed JSON")
	}
}

// TestSweepSeedsFromRealCampaign closes the loop on real output: a real
// campaign's JSONL stream must seed a search without any glue.
func TestSweepSeedsFromRealCampaign(t *testing.T) {
	spec := campaign.DefaultSpec()
	spec.Presets = []string{"headon", "tailchase"}
	spec.Samples = 2
	spec.Seed = 3
	var buf bytes.Buffer
	if _, err := campaign.RunContext(context.Background(), spec, campaign.DefaultSystems(nil), &buf); err != nil {
		t.Fatal(err)
	}
	seeds, err := SweepSeeds(bytes.NewReader(buf.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) == 0 {
		t.Fatal("no seeds extracted from a real campaign stream")
	}
	s := DefaultSpec()
	s.SeedGenomes = seeds
	if err := s.Validate(); err != nil {
		t.Errorf("real campaign seeds rejected by spec validation: %v", err)
	}
}
