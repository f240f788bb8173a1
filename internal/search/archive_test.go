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
	"acasxval/internal/fault"
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
	name := a.entries[0].Name
	if !a.Add(entryAt(t, 2000, 0.01)) {
		t.Error("fitter near-duplicate rejected")
	}
	if a.Len() != 1 {
		t.Fatalf("replacement grew the archive to %d entries", a.Len())
	}
	if got := a.entries[0]; got.Name != name || got.Fitness != 2000 {
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
	if a.entries[0].Name == a.entries[1].Name {
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
	firstName := a.entries[0].Name
	if !a.Add(entryAt(t, 2000, 3.5)) {
		t.Error("dominating candidate rejected")
	}
	if a.Len() != 1 {
		t.Fatalf("merge left %d entries, want 1", a.Len())
	}
	if got := a.entries[0]; got.Name != firstName || got.Fitness != 2000 {
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
	loaded, truncated, err := LoadArchive(bytes.NewReader(buf.Bytes()))
	if err != nil || truncated {
		t.Fatalf("LoadArchive: truncated %v, %v", truncated, err)
	}
	if !reflect.DeepEqual(loaded, a.entries) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", loaded, a.entries)
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
// prefix must load; the torn tail is skipped and reported to the caller,
// not treated as corruption.
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

	loaded, truncated, err := LoadArchive(bytes.NewReader(torn))
	if err != nil || !truncated {
		t.Fatalf("LoadArchive on crash-tail stream: truncated %v, %v", truncated, err)
	}
	if want := a.entries[:1]; !reflect.DeepEqual(loaded, want) {
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
		if _, _, err := LoadArchive(strings.NewReader(text)); err == nil {
			t.Errorf("%s: LoadArchive accepted %q", name, text)
		}
	}
}

// TestRankedEntries: the archive ranks by decreasing fitness with equal
// fitness in discovery order, keeps every intruder block and fault gene,
// and leaves the discovery order it ranks untouched.
func TestRankedEntries(t *testing.T) {
	a := NewArchive(1000, 0.05, testBounds(t))
	tail := entryAt(t, 1500, 0)
	tail.Params = encounter.PresetTailApproach().Vector()
	crossing := entryAt(t, 1500, 0)
	crossing.Params = encounter.PresetCrossing().Vector()
	for _, e := range []ArchiveEntry{entryAt(t, 1200, 0), tail, crossing} {
		if !a.Add(e) {
			t.Fatalf("distinct entry %v rejected", e.Params)
		}
	}
	if got := entryNames(a.Ranked()); !reflect.DeepEqual(got, []string{"danger/0001", "danger/0002", "danger/0000"}) {
		t.Errorf("ranked names %v, want the two 1500s in discovery order, then the 1200", got)
	}
	if got := entryNames(a.entries); !reflect.DeepEqual(got, []string{"danger/0000", "danger/0001", "danger/0002"}) {
		t.Errorf("ranking reordered the archive: %v", got)
	}

	two := ArchiveEntry{Name: "danger/0009", Fitness: 9000,
		Params: append(encounter.PresetHeadOn().Vector(), encounter.PresetTailApproach().Vector()...),
		Fault:  fault.NeutralGenes()}
	ranked := RankEntries(append(a.Ranked(), two))
	if !reflect.DeepEqual(ranked[0], two) {
		t.Errorf("top entry %+v, want the K=2 fault entry whole", ranked[0])
	}
}

func entryNames(entries []ArchiveEntry) []string {
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	return names
}

// tallyEntry is an archive entry of a preset geometry, with climbing
// against descending vertical rates when opposed.
func tallyEntry(p encounter.Params, opposed bool) ArchiveEntry {
	p.OwnVerticalSpeed, p.IntruderVerticalSpeed = 0, 0
	if opposed {
		p.OwnVerticalSpeed, p.IntruderVerticalSpeed = -2.5, 2.5
	}
	return ArchiveEntry{Name: "x", Params: p.Vector()}
}

func TestTallyAndDominant(t *testing.T) {
	tally := Tally([]ArchiveEntry{
		tallyEntry(encounter.PresetTailApproach(), true),
		tallyEntry(encounter.PresetTailApproach(), false),
		tallyEntry(encounter.PresetHeadOn(), false),
		tallyEntry(encounter.PresetCrossing(), false),
	})
	want := CategoryTally{HeadOn: 1, TailApproach: 2, Crossing: 1, VerticallyOpposed: 1, Total: 4}
	if tally != want {
		t.Errorf("tally = %+v, want %+v", tally, want)
	}
	if tally.Dominant() != encounter.TailApproach {
		t.Errorf("dominant = %v", tally.Dominant())
	}
	if !strings.HasSuffix(tally.String(), "of 4; dominant tail-approach") {
		t.Errorf("tally string %q", tally)
	}
	// A K=2 entry counts once, under its fastest-closing intruder.
	two := ArchiveEntry{Name: "x", Params: append(encounter.PresetCrossing().Vector(), encounter.PresetHeadOn().Vector()...)}
	if got := Tally([]ArchiveEntry{two}); got.HeadOn != 1 || got.Total != 1 {
		t.Errorf("K=2 tally = %+v, want one head-on", got)
	}
}

// TestTallyEmptyHasNoDominant: an empty archive claims no class, so a
// search that archived nothing cannot report the paper's finding.
func TestTallyEmptyHasNoDominant(t *testing.T) {
	tally := Tally(nil)
	if tally.Total != 0 || tally.Dominant() != 0 {
		t.Errorf("empty tally %+v has dominant %v, want none", tally, tally.Dominant())
	}
	if !strings.HasSuffix(tally.String(), "of 0; dominant none") {
		t.Errorf("empty tally string %q", tally)
	}
}

// TestReportTop: one row per entry in the given order, naming the entry,
// its class, its fault severity ("-" without fault genes) and every
// intruder.
func TestReportTop(t *testing.T) {
	faulted := tallyEntry(encounter.PresetTailApproach(), true)
	faulted.Name, faulted.Fitness = "danger/0004", 9500
	faulted.Params = append(faulted.Params, encounter.PresetHeadOn().Vector()...)
	faulted.Fault = fault.Genes(fault.Profile{Latency: 4})
	clean := tallyEntry(encounter.PresetCrossing(), false)
	clean.Name, clean.Fitness = "danger/0001", 6000
	lines := strings.Split(strings.TrimSpace(ReportTop([]ArchiveEntry{faulted, clean})), "\n")
	if len(lines) != 3 {
		t.Fatalf("report has %d lines, want a header and 2 rows:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	severity := fmt.Sprintf("%.2f", fault.Profile{Latency: 4}.Severity())
	for _, want := range []string{"   1    9500.0", "danger/0004", severity, "K=2"} {
		if !strings.Contains(lines[1], want) {
			t.Errorf("row 1 %q lacks %q", lines[1], want)
		}
	}
	for _, want := range []string{"   2    6000.0 crossing", " - ", "danger/0001", "K=1"} {
		if !strings.Contains(lines[2], want) {
			t.Errorf("row 2 %q lacks %q", lines[2], want)
		}
	}
}

// FuzzLoadArchive: encsim -archive replays user files, so on arbitrary
// bytes LoadArchive either fails or returns entries whose params decode as
// an encounter and whose fault genes, when present, decode to a profile
// that Validate judges, all without a panic.
func FuzzLoadArchive(f *testing.F) {
	line := func(e ArchiveEntry) []byte {
		data, err := json.Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		return append(data, '\n')
	}
	pair := ArchiveEntry{Name: "danger/0000", Fitness: 6000, Geometry: "head-on", Params: encounter.PresetHeadOn().Vector()}
	two := ArchiveEntry{Name: "danger/0001", Fitness: 7000, Geometry: "tail-approach",
		Params: append(encounter.PresetTailApproach().Vector(), encounter.PresetCrossing().Vector()...),
		Fault:  fault.Genes(fault.Profile{BurstEnter: 0.2, BurstExit: 0.5, BurstDrop: 0.9, Latency: 2})}
	f.Add(append(line(pair), line(two)...))
	f.Add(line(two)[:40])
	f.Add([]byte(`{"name":"x","fitness":1,"params":[1,2,3,4,5,6,7,8,9],"fault":[1,0,0,0,1e300,-1,0]}` + "\n"))
	f.Add([]byte("null\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, _, err := LoadArchive(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, e := range entries {
			if _, err := e.MultiEncounterParams(); err != nil {
				t.Errorf("%s: loaded entry does not decode: %v", e.Name, err)
			}
			if len(e.Fault) != 0 {
				_ = fault.FromGenes(e.Fault).Validate()
			}
		}
	})
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

	seeds, _, err := SweepSeeds(strings.NewReader(lines), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{p2, p3, p1} // worst first by P(NMAC)
	if !reflect.DeepEqual(seeds, want) {
		t.Errorf("seeds = %v, want %v", seeds, want)
	}

	limited, _, err := SweepSeeds(strings.NewReader(lines), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 2 || !reflect.DeepEqual(limited[0], p2) {
		t.Errorf("limited seeds = %v", limited)
	}
	torn, truncated, err := SweepSeeds(strings.NewReader(lines+`{"cell":5,"p_nm`), 0)
	if err != nil || !truncated || !reflect.DeepEqual(torn, want) {
		t.Errorf("crash-tail stream: seeds %v, truncated %v, %v", torn, truncated, err)
	}

	if _, _, err := SweepSeeds(strings.NewReader(`{"cell":0}`+"\n"), 0); err == nil {
		t.Error("SweepSeeds accepted a stream with no usable cells")
	}
	if _, _, err := SweepSeeds(strings.NewReader("garbage\n"), 0); err == nil {
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
	seeds, _, err := SweepSeeds(bytes.NewReader(buf.Bytes()), 0)
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
