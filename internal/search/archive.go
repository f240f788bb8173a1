package search

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"acasxval/internal/campaign"
	"acasxval/internal/durable"
	"acasxval/internal/encounter"
	"acasxval/internal/fault"
	"acasxval/internal/ga"
	"acasxval/internal/stats"
)

// ArchiveEntry is one archived dangerous encounter: a discovered genome
// whose fitness crossed the risk threshold, with the evaluation evidence
// and geometry classification needed to triage it. Entries serialize as one
// JSON object per line.
type ArchiveEntry struct {
	// Name uniquely labels the entry ("danger/0003"); reloaded archives
	// use it as the campaign scenario name.
	Name string `json:"name"`
	// Fitness is the paper's fitness value (collision gain over mean
	// separation).
	Fitness float64 `json:"fitness"`
	// PNMAC is the fraction of the encounter's simulations that ended in
	// a near mid-air collision.
	PNMAC float64 `json:"p_nmac"`
	// MeanMinSep averages the per-run minimum separations, metres.
	MeanMinSep float64 `json:"mean_min_sep_m"`
	// Geometry is the encounter.Classify category label.
	Geometry string `json:"geometry"`
	// Island, Generation and Index locate the discovery in the search.
	Island     int `json:"island"`
	Generation int `json:"generation"`
	Index      int `json:"index"`
	// Params is the encounter parameter vector in genome order (geometry
	// only — fault genes never enter the dedup distance).
	Params []float64 `json:"params"`
	// Fault is the co-evolved degradation profile in gene order
	// (fault.Genes); empty for clean-surveillance and fixed-profile
	// searches, so their archives keep the historical byte stream.
	Fault []float64 `json:"fault,omitempty"`
}

// MultiEncounterParams decodes the entry's parameter vector as a
// one-ownship, K-intruder encounter (pairwise entries decode as K = 1).
func (e ArchiveEntry) MultiEncounterParams() (encounter.MultiParams, error) {
	return encounter.MultiFromVector(e.Params)
}

// validate checks an entry's structural invariants (shared by the JSONL
// loader and the checkpoint decoder).
func (e ArchiveEntry) validate() error {
	if e.Name == "" {
		return fmt.Errorf("search: archive entry with empty name")
	}
	if len(e.Params) == 0 || len(e.Params)%encounter.NumParams != 0 {
		return fmt.Errorf("search: archive entry %q has %d params, want a positive multiple of %d",
			e.Name, len(e.Params), encounter.NumParams)
	}
	if !stats.AllFinite(e.Params...) {
		return fmt.Errorf("search: archive entry %q has a non-finite param", e.Name)
	}
	if len(e.Fault) != 0 && len(e.Fault) != fault.GeneCount {
		return fmt.Errorf("search: archive entry %q has %d fault genes, want %d (or none)",
			e.Name, len(e.Fault), fault.GeneCount)
	}
	if !stats.AllFinite(e.Fault...) {
		return fmt.Errorf("search: archive entry %q has a non-finite fault gene", e.Name)
	}
	if !stats.AllFinite(e.Fitness) {
		return fmt.Errorf("search: archive entry %q: fitness is %v", e.Name, e.Fitness)
	}
	return nil
}

// Archive is the deduplicated store of dangerous encounters accumulated by
// a search. Entries are kept in discovery order; a candidate within
// MinDistance (normalized encounter-geometry distance) of an existing entry
// replaces it when fitter and is dropped otherwise, so the archive stays a
// spread of distinct failure geometries rather than one cluster of
// near-identical collisions.
type Archive struct {
	threshold   float64
	minDistance float64
	scale       ga.DistanceScale
	seq         int
	entries     []ArchiveEntry
}

// NewArchive builds an empty archive over the given search bounds.
func NewArchive(threshold, minDistance float64, bounds ga.Bounds) *Archive {
	return &Archive{
		threshold:   threshold,
		minDistance: minDistance,
		scale:       ga.NewDistanceScale(bounds),
	}
}

// Add offers a candidate to the archive. The entry's Name is assigned by
// the archive. A candidate within MinDistance of existing entries is
// admitted only when it is fitter than all of them; it then takes over the
// first such entry's slot and the other near entries merge into it (they
// are removed), so no two archived geometries ever sit closer than
// MinDistance. Reports whether the archive changed.
func (a *Archive) Add(e ArchiveEntry) bool {
	if e.Fitness < a.threshold {
		return false
	}
	var near []int
	for i := range a.entries {
		if a.scale.Distance(e.Params, a.entries[i].Params) < a.minDistance {
			near = append(near, i)
		}
	}
	if len(near) == 0 {
		e.Name = fmt.Sprintf("danger/%04d", a.seq)
		a.seq++
		a.entries = append(a.entries, e)
		return true
	}
	for _, i := range near {
		if e.Fitness <= a.entries[i].Fitness {
			return false
		}
	}
	// Fitter than every neighbor: keep the first slot's identity, drop the
	// rest (back to front so the indices stay valid).
	e.Name = a.entries[near[0]].Name
	a.entries[near[0]] = e
	for k := len(near) - 1; k >= 1; k-- {
		i := near[k]
		a.entries = append(a.entries[:i], a.entries[i+1:]...)
	}
	return true
}

// Len reports the number of archived encounters.
func (a *Archive) Len() int { return len(a.entries) }

// Ranked returns the archived encounters by decreasing fitness, equal
// fitness in discovery order: the order of the top-k report and of
// encsim -rank.
func (a *Archive) Ranked() []ArchiveEntry { return RankEntries(a.entries) }

// RankEntries returns a copy of entries sorted by decreasing fitness,
// stable in input order, so a reloaded archive ranks as Ranked does.
func RankEntries(entries []ArchiveEntry) []ArchiveEntry {
	out := append([]ArchiveEntry(nil), entries...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Fitness > out[j].Fitness })
	return out
}

// CategoryTally counts archived encounters by geometry class: the analysis
// that revealed "most of them are tail approach situations" (section VII).
type CategoryTally struct {
	HeadOn       int
	TailApproach int
	Crossing     int
	// VerticallyOpposed counts encounters where one aircraft climbs while
	// the other descends, across all classes.
	VerticallyOpposed int
	Total             int
}

// Tally classifies archive entries with encounter.ClassifyMulti over all
// their intruders: a K-intruder entry counts under its fastest-closing
// intruder, as its Geometry label does.
func Tally(entries []ArchiveEntry) CategoryTally {
	var t CategoryTally
	for _, e := range entries {
		m, err := e.MultiEncounterParams()
		if err != nil {
			continue // validated entries always decode
		}
		g := encounter.ClassifyMulti(m)
		t.Total++
		switch g.Category {
		case encounter.HeadOn:
			t.HeadOn++
		case encounter.TailApproach:
			t.TailApproach++
		default:
			t.Crossing++
		}
		if g.VerticallyOpposed {
			t.VerticallyOpposed++
		}
	}
	return t
}

// Dominant returns the most common class of the tally, ties going to
// tail-approach, then head-on. An empty tally has no dominant class: it
// returns the zero Category.
func (t CategoryTally) Dominant() encounter.Category {
	switch {
	case t.Total == 0:
		return 0
	case t.TailApproach >= t.HeadOn && t.TailApproach >= t.Crossing:
		return encounter.TailApproach
	case t.HeadOn >= t.Crossing:
		return encounter.HeadOn
	default:
		return encounter.Crossing
	}
}

// String implements fmt.Stringer; the dominant class reads "none" for an
// empty tally.
func (t CategoryTally) String() string {
	dominant := "none"
	if t.Total > 0 {
		dominant = t.Dominant().String()
	}
	return fmt.Sprintf("head-on %d, tail-approach %d, crossing %d (vertically opposed %d) of %d; dominant %s",
		t.HeadOn, t.TailApproach, t.Crossing, t.VerticallyOpposed, t.Total, dominant)
}

// ReportTop renders archive entries, in the given order, as a ranked
// table: the geometry of the fastest-closing intruder, the severity of the
// co-evolved fault profile ("-" for none) and the whole encounter.
func ReportTop(entries []ArchiveEntry) string {
	var sb strings.Builder
	sb.WriteString("rank fitness   class          vert-opposed  fault  name         encounter\n")
	for i, e := range entries {
		m, err := e.MultiEncounterParams()
		if err != nil {
			continue // validated entries always decode
		}
		g := encounter.ClassifyMulti(m)
		severity := "-"
		if len(e.Fault) == fault.GeneCount {
			severity = fmt.Sprintf("%.2f", fault.FromGenes(e.Fault).Severity())
		}
		fmt.Fprintf(&sb, "%4d %9.1f %-14s %-13v %-6s %-12s %s\n",
			i+1, e.Fitness, g.Category, g.VerticallyOpposed, severity, e.Name, m)
	}
	return sb.String()
}

// WriteJSONL writes the archive as one JSON record per line, in discovery
// order. The byte stream is identical for identical search runs.
func (a *Archive) WriteJSONL(w io.Writer) error {
	data, err := durable.JSONL(a.entries)
	if err == nil {
		_, err = w.Write(data)
	}
	if err != nil {
		return fmt.Errorf("search: write archive: %w", err)
	}
	return nil
}

// LoadArchive parses a JSONL archive stream produced by WriteJSONL. A
// half-written trailing line — the signature of a writer killed
// mid-record — is skipped and reported as truncated, for the caller to
// warn about; a corrupt interior line is an error (see durable.ScanJSONL).
func LoadArchive(r io.Reader) (entries []ArchiveEntry, truncated bool, err error) {
	truncated, err = durable.ScanJSONL(r, func(line int, data []byte) error {
		var e ArchiveEntry
		if err := json.Unmarshal(data, &e); err != nil {
			return fmt.Errorf("search: archive line %d: %w", line, err)
		}
		if err := e.validate(); err != nil {
			return fmt.Errorf("search: archive line %d: %w", line, err)
		}
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	if len(entries) == 0 {
		return nil, false, fmt.Errorf("search: archive is empty")
	}
	return entries, truncated, nil
}

// LoadArchiveFile reads a JSONL archive from disk (see LoadArchive).
func LoadArchiveFile(path string) ([]ArchiveEntry, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, fmt.Errorf("search: %w", err)
	}
	defer f.Close()
	return LoadArchive(f)
}

// CampaignScenarios converts archive entries into explicit campaign
// scenarios, so a danger archive replays as the scenario axis of a
// validation sweep.
func CampaignScenarios(entries []ArchiveEntry) ([]campaign.Scenario, error) {
	out := make([]campaign.Scenario, 0, len(entries))
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		if err := e.validate(); err != nil {
			return nil, err
		}
		if seen[e.Name] {
			return nil, fmt.Errorf("search: duplicate archive entry name %q", e.Name)
		}
		seen[e.Name] = true
		m, err := e.MultiEncounterParams()
		if err != nil {
			return nil, err
		}
		out = append(out, campaign.Scenario{Name: e.Name, Params: m})
	}
	return out, nil
}

// ProposalKernels converts archive entries into importance-sampling
// proposal kernel centers (montecarlo.RareEventSpec.Kernels): each entry's
// genome vector becomes one kernel, so the danger archive steers the
// rare-event estimator toward the failure region it discovered. Entries
// are validated; genome lengths are checked against the encounter model at
// estimation time.
func ProposalKernels(entries []ArchiveEntry) ([][]float64, error) {
	out := make([][]float64, 0, len(entries))
	for _, e := range entries {
		if err := e.validate(); err != nil {
			return nil, err
		}
		out = append(out, append([]float64(nil), e.Params...))
	}
	return out, nil
}
