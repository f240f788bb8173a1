package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"acasxval/internal/acasx"
	"acasxval/internal/encounter"
	"acasxval/internal/montecarlo"
	"acasxval/internal/stats"
	"acasxval/internal/sys"
)

// BaselineSystem is the system name risk ratios are computed against.
const BaselineSystem = "none"

// modelDrawSalt decorrelates scenario-draw seeds from cell-sampling seeds.
const modelDrawSalt = 0x5CEA12105A17

// modelDrawName labels the i-th encounter-model draw in the scenario axis.
func modelDrawName(i int) string { return fmt.Sprintf("model/%03d", i) }

// estimatorScenario is the reserved scenario name of estimator cells: they
// estimate against the statistical encounter model itself, not a fixed
// geometry.
const estimatorScenario = "model"

// SystemSet maps system names to factories producing fresh system pairs.
type SystemSet map[string]montecarlo.SystemFactory

// NeedsTable reports whether the named system requires a logic table (per
// the sys registry).
func NeedsTable(name string) bool {
	return sys.NeedsTable(name)
}

// DefaultSystems returns every registered backend under its default
// configuration: table-requiring backends ("acasx", "belief") only when a
// logic table is supplied. Backends whose defaults fail to construct are
// left out — the default set is the runnable menu.
func DefaultSystems(table *acasx.Table) SystemSet {
	ctx := sys.Context{Table: table}
	set := SystemSet{}
	for _, name := range sys.Names() {
		if sys.NeedsTable(name) && table == nil {
			continue
		}
		factory, err := sys.PairFactory(ctx, sys.Spec{Name: name})
		if err != nil {
			continue
		}
		set[name] = factory
	}
	return set
}

// Names lists the set's system names in sorted order.
func (s SystemSet) Names() []string {
	names := make([]string, 0, len(s))
	for name := range s {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CellResult is one cell of the campaign cross-product: one scenario run
// Samples times against one system under one variant. It is the unit
// streamed as a JSONL record.
type CellResult struct {
	Index    int    `json:"cell"`
	Campaign string `json:"campaign"`
	Scenario string `json:"scenario"`
	Geometry string `json:"geometry"`
	System   string `json:"system"`
	Variant  string `json:"variant"`
	// Fault names the fault-axis point the cell ran under; omitted for
	// the fault-free point, so unfaulted sweeps keep their historical
	// byte stream.
	Fault string `json:"fault,omitempty"`
	// Estimator names the rare-event estimation method of an estimator
	// cell (scenario "model"): the cell estimates P(NMAC) under the
	// statistical encounter model rather than replaying a fixed geometry.
	// Empty for classic cells, which keep their historical byte stream.
	Estimator  string  `json:"estimator,omitempty"`
	Samples    int     `json:"samples"`
	NMACs      int     `json:"nmacs"`
	PNMAC      float64 `json:"p_nmac"`
	PNMACLo    float64 `json:"p_nmac_lo"`
	PNMACHi    float64 `json:"p_nmac_hi"`
	AlertRate  float64 `json:"alert_rate"`
	MeanAlerts float64 `json:"mean_alerts"`
	MeanMinSep float64 `json:"mean_min_sep_m"`
	// ESS and VarianceReduction report the estimator cell's effective
	// sample size and measured variance-reduction factor against a
	// brute-force run of the same episode budget (set only on estimator
	// cells; see montecarlo.Estimate).
	ESS               float64 `json:"ess,omitempty"`
	VarianceReduction float64 `json:"variance_reduction,omitempty"`
	// Params is the cell's encounter parameter vector in genome order, so
	// downstream consumers (the adversarial search's campaign seeding) can
	// reconstruct the exact scenario from the JSONL record alone.
	Params []float64 `json:"params"`
}

// EncounterParams decodes the record's parameter vector as a classic
// pairwise encounter. It errors on multi-intruder cells (vector length
// K*NumParams with K > 1); use MultiEncounterParams for those.
func (c CellResult) EncounterParams() (encounter.Params, error) {
	return encounter.FromVector(c.Params)
}

// MultiEncounterParams decodes the record's parameter vector as a
// one-ownship, K-intruder encounter (the pairwise records decode as K = 1).
func (c CellResult) MultiEncounterParams() (encounter.MultiParams, error) {
	return encounter.MultiFromVector(c.Params)
}

// SystemSummary aggregates one (system, variant) pair across every
// scenario: pooled NMAC probability, alert rate, mean minimum separation,
// and the risk ratio against the unequipped baseline under the same
// variant. HasRiskRatio reports whether the ratio is defined: a baseline
// ran under this variant and recorded at least one NMAC. When it is false
// — no baseline configured, or a baseline with zero events — the summary
// ranking falls back to raw pooled P(NMAC).
type SystemSummary struct {
	System  string `json:"system"`
	Variant string `json:"variant"`
	// Fault names the fault-axis point the group ran under (empty for
	// the fault-free point). Risk ratios compare against the unequipped
	// baseline under the SAME degradation, so a ratio near 1 under a
	// severe profile means the system has lost its protective value,
	// not that the baseline improved.
	Fault        string  `json:"fault,omitempty"`
	Cells        int     `json:"cells"`
	Samples      int     `json:"samples"`
	NMACs        int     `json:"nmacs"`
	PNMAC        float64 `json:"p_nmac"`
	AlertRate    float64 `json:"alert_rate"`
	MeanMinSep   float64 `json:"mean_min_sep_m"`
	RiskRatio    float64 `json:"risk_ratio"`
	HasRiskRatio bool    `json:"has_risk_ratio"`
}

// Result is the outcome of a campaign run.
type Result struct {
	// Name echoes the campaign name.
	Name string
	// Cells holds every cell result in deterministic cell order (the same
	// order the JSONL stream uses).
	Cells []CellResult
	// Summaries ranks (system, variant, fault) aggregates: variants in
	// declared order, fault points in declared order within a variant;
	// within each group, systems by ascending risk ratio (systems without
	// a baseline rank after those with one, by pooled P(NMAC)).
	Summaries []SystemSummary
	// TotalRuns counts individual encounter simulations.
	TotalRuns int
}

// Cell is one unit of campaign work before execution: one point of the
// expanded cross-product, ready to hand to RunCellContext. An estimator
// cell (Estimator != "") carries no fixed params: it samples the spec's
// statistical model. Cells are exposed so external schedulers (the
// validation server's shard supervisor) can distribute exactly the units
// Run distributes, with identical results.
type Cell struct {
	Index     int
	Scenario  string
	Geometry  string
	Params    encounter.MultiParams
	System    string
	Variant   Variant
	Fault     FaultPoint
	Estimator string
}

// Cells expands the spec's cross-product in deterministic order:
// variant-major, then fault point, then scenario, then system. The
// default single fault point reproduces the historical cell order
// exactly.
func (s Spec) Cells() ([]Cell, error) {
	type scenario struct {
		name     string
		geometry string
		params   encounter.MultiParams
	}
	var scenarios []scenario
	for _, name := range s.Presets {
		m, err := encounter.MultiPreset(name)
		if err != nil {
			return nil, err
		}
		scenarios = append(scenarios, scenario{name, encounter.ClassifyMulti(m).Category.String(), m})
	}
	for _, sc := range s.Scenarios {
		scenarios = append(scenarios, scenario{sc.Name, encounter.ClassifyMulti(sc.Params).Category.String(), sc.Params})
	}
	model := s.multiModel()
	for i := 0; i < s.ModelDraws; i++ {
		// Scenario draws derive from the campaign seed alone, so the same
		// spec always sweeps the same sampled encounters. A K of 1 draws
		// the exact stream the classic pairwise sweeps did, keeping their
		// JSONL byte-identical.
		m := model.Sample(stats.NewChildRNG(s.Seed^modelDrawSalt, i))
		scenarios = append(scenarios, scenario{modelDrawName(i), encounter.ClassifyMulti(m).Category.String(), m})
	}
	var cells []Cell
	for _, v := range s.variantsOrDefault() {
		for _, fp := range s.faultsOrDefault() {
			for _, sc := range scenarios {
				for _, sys := range s.Systems {
					cells = append(cells, Cell{
						Index:    len(cells),
						Scenario: sc.name,
						Geometry: sc.geometry,
						Params:   sc.params,
						System:   sys,
						Variant:  v,
						Fault:    fp,
					})
				}
			}
		}
	}
	// Estimator cells go strictly after the classic grid: the leading
	// bytes of the JSONL stream — and every classic cell index — are
	// untouched by declaring the axis.
	for _, v := range s.variantsOrDefault() {
		for _, fp := range s.faultsOrDefault() {
			for _, est := range s.Estimators {
				for _, sys := range s.Systems {
					cells = append(cells, Cell{
						Index:     len(cells),
						Scenario:  estimatorScenario,
						Geometry:  estimatorScenario,
						System:    sys,
						Variant:   v,
						Fault:     fp,
						Estimator: est,
					})
				}
			}
		}
	}
	return cells, nil
}

// RunContext executes the campaign: every cell replays its fixed scenario
// through the Monte-Carlo harness on a worker pool, cells stream to jsonl
// (may be nil) as one JSON record per line in deterministic cell order, and
// the aggregate summaries rank systems by risk ratio. The result — including
// the JSONL byte stream — is identical for identical (spec, systems).
//
// A cancelled ctx stops the cell pool promptly without corrupting the
// stream: the JSONL writer never emits a partial line, and the call returns
// the partial result — exactly the completed prefix of the deterministic
// cell order, matching the bytes already flushed — alongside ctx.Err().
// Callers distinguish interruption (non-nil result and error) from failure
// (nil result).
func RunContext(ctx context.Context, spec Spec, systems SystemSet, jsonl io.Writer) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	for _, name := range spec.Systems {
		if _, ok := systems[name]; !ok {
			return nil, fmt.Errorf("campaign: system %q not available (have %v)", name, systems.Names())
		}
	}
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}

	// Clamp the pool to the hardware the same way BuildTable does: each
	// cell is CPU-bound, so oversubscribing beyond NumCPU only adds
	// scheduler churn.
	pool := spec.Parallelism
	if pool < 1 || pool > runtime.NumCPU() {
		pool = runtime.NumCPU()
	}
	// When the cell grid cannot fill the pool, spill the leftover
	// parallelism into the cells themselves: each cell's evaluator fans its
	// episodes across the otherwise-idle cores, with the division remainder
	// handed out one extra worker per leading cell so no core idles.
	// Estimates are worker-count invariant, so the spill changes wall-clock
	// only — every result and JSONL byte stays identical.
	workers := pool
	episodeWorkers, extraWorkerCells := 1, 0
	if len(cells) > 0 && workers > len(cells) {
		workers = len(cells)
		episodeWorkers = pool / workers
		extraWorkerCells = pool % workers
	}
	cellEpisodeWorkers := func(i int) int {
		if i < extraWorkerCells {
			return episodeWorkers + 1
		}
		return episodeWorkers
	}

	// Fan the cells out; stream completed results in index order so the
	// JSONL byte stream is reproducible regardless of scheduling.
	results := make([]CellResult, len(cells))
	errs := make([]error, len(cells))
	idxCh := make(chan int)
	doneCh := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// Each worker reuses one scratch across all its cells instead
			// of allocating fresh run buffers per cell.
			var scratch montecarlo.Scratch
			for i := range idxCh {
				c := cells[i]
				results[i], errs[i] = RunCellContext(ctx, spec, c, systems[c.System], cellEpisodeWorkers(i), &scratch)
				doneCh <- i
			}
		}()
	}
	// abort stops the feeder after the first error so a failing campaign
	// does not run its whole remaining cross-product before reporting; a
	// cancelled ctx stops it the same way (the in-flight cells additionally
	// abort between episodes).
	abort := make(chan struct{})
	go func() {
	feed:
		for i := range cells {
			select {
			case idxCh <- i:
			case <-abort:
				break feed
			case <-ctx.Done():
				break feed
			}
		}
		close(idxCh)
		wg.Wait()
		close(doneCh)
	}()

	ready := make(map[int]bool, len(cells))
	next := 0
	// prefix is the completed in-order cell prefix at the moment of the
	// first error: exactly the cells whose JSONL lines were flushed.
	prefix := 0
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			prefix = next
			close(abort)
		}
	}
	for i := range doneCh {
		ready[i] = true
		for ready[next] {
			if errs[next] != nil {
				fail(errs[next])
			}
			if firstErr == nil && jsonl != nil {
				line, err := json.Marshal(results[next])
				if err == nil {
					_, err = fmt.Fprintf(jsonl, "%s\n", line)
				}
				if err != nil {
					fail(err)
				}
			}
			delete(ready, next)
			next++
		}
	}
	if firstErr != nil {
		if errors.Is(firstErr, context.Canceled) || errors.Is(firstErr, context.DeadlineExceeded) {
			// Interrupted, not broken: report the completed prefix so the
			// caller can summarize the work that did finish.
			return NewResult(spec, results[:prefix]), firstErr
		}
		return nil, firstErr
	}
	return NewResult(spec, results), nil
}

// RunCellContext executes one expanded campaign cell and assembles its
// CellResult — the exact record Run streams for that cell, byte for byte
// once marshaled. It is the shared execution path of the in-process pool
// and the validation server's shard supervisor: a cell re-run after a
// crash, timeout or retry reproduces the identical record, because the
// cell's whole stochastic draw derives from (spec.Seed, cell identity).
func RunCellContext(ctx context.Context, spec Spec, c Cell, factory montecarlo.SystemFactory, episodeWorkers int, scratch *montecarlo.Scratch) (CellResult, error) {
	est, err := runCell(ctx, spec, c, factory, episodeWorkers, scratch)
	if err != nil {
		return CellResult{}, err
	}
	res := CellResult{
		Index:      c.Index,
		Campaign:   spec.Name,
		Scenario:   c.Scenario,
		Geometry:   c.Geometry,
		System:     c.System,
		Variant:    c.Variant.Name,
		Fault:      c.Fault.label(),
		Estimator:  c.Estimator,
		Samples:    est.Samples,
		NMACs:      est.NMACs,
		PNMAC:      est.PNMAC,
		PNMACLo:    est.PNMACCI.Lo,
		PNMACHi:    est.PNMACCI.Hi,
		AlertRate:  est.AlertRate,
		MeanAlerts: est.MeanAlerts,
		MeanMinSep: est.MeanMinSeparation,
	}
	if c.Estimator == "" {
		res.Params = c.Params.Vector()
	} else {
		// ESS and VRF only mean something against an estimator; classic
		// cells stay byte-identical.
		res.ESS = est.ESS
		res.VarianceReduction = est.VarianceReduction
	}
	return res, nil
}

// NewResult assembles a Result from completed cell records: the cells in
// stream order, the pooled run count, and the ranked summaries. Run uses
// it for both complete and interrupted campaigns; the validation server
// uses it to rebuild a byte-identical result from journaled cells.
func NewResult(spec Spec, cells []CellResult) *Result {
	res := &Result{Name: spec.Name, Cells: cells}
	for _, c := range cells {
		res.TotalRuns += c.Samples
	}
	res.Summaries = summarize(spec, cells)
	return res
}

// CellSeed derives a cell's Monte-Carlo seed from its stable identity
// (scenario, system, variant names) rather than its ordinal index, so
// growing one axis — most importantly appending reloaded danger-archive
// scenarios — cannot shift the stochastic draws of every pre-existing
// cell. Identical cells across sweeps report identical numbers, which is
// what makes a `sweep -extra` run comparable against the sweep it grew
// from. The fault point is deliberately absent from the identity: every
// severity level replays the same episode seeds as its clean sibling, so
// differences along the fault axis are paired — pure degradation effect,
// not sampling noise. Exported because the validation server keys its
// completed-cell cache by (cell identity hash, cell seed).
func CellSeed(seed uint64, c Cell) uint64 {
	h := fnv.New64a()
	// Length-prefix each component: names are arbitrary strings, so a
	// plain separator could make distinct identities hash alike.
	fmt.Fprintf(h, "%d:%s|%d:%s|%d:%s",
		len(c.Scenario), c.Scenario, len(c.System), c.System, len(c.Variant.Name), c.Variant.Name)
	return stats.DeriveSeed(seed^h.Sum64(), 0)
}

// runCell evaluates one cell: the fixed scenario replayed Samples times
// with seed-derived stochastic dynamics and sensor noise. scratch is the
// owning worker's reusable world set; episodeWorkers is the per-cell
// episode parallelism (1 when the cell pool already saturates the CPUs,
// more when a small grid leaves cores idle).
func runCell(ctx context.Context, spec Spec, c Cell, factory montecarlo.SystemFactory, episodeWorkers int, scratch *montecarlo.Scratch) (*montecarlo.Estimate, error) {
	cfg := montecarlo.Config{
		Samples:     c.Variant.samples(spec.Samples),
		Run:         c.Variant.apply(spec.Run),
		Seed:        CellSeed(spec.Seed, c),
		Parallelism: episodeWorkers,
	}
	// The fault axis replaces whatever profile the base configuration
	// carried: each point IS the cell's degradation condition.
	cfg.Run.Faults = c.Fault.Profile
	if c.Estimator != "" {
		// Estimator cells estimate under the statistical model. The seed
		// identity omits the method (like it omits the fault point), so
		// every estimator — and brute force — draws comparable randomness
		// for the same (system, variant).
		es := spec.EstimatorSpec
		es.Method = c.Estimator
		return montecarlo.EstimateRareMultiWithScratchContext(ctx, spec.multiModel(), factory, cfg, es, scratch)
	}
	return montecarlo.EvaluateMultiWithScratchContext(ctx, montecarlo.MultiPointModel(c.Params), factory, cfg, scratch)
}

// summarize pools cells into per-(system, variant, fault) aggregates and
// ranks them: variants in declared order, fault points in declared order
// within a variant, systems by ascending risk ratio within each group.
// Each risk ratio divides by the unequipped baseline under the SAME
// variant and the SAME fault point, so degraded groups measure how much
// protective value survives the degradation, not how much the degradation
// hurt the baseline.
func summarize(spec Spec, cells []CellResult) []SystemSummary {
	type key struct{ system, variant, fault string }
	type agg struct {
		cells, samples, nmacs int
		alerted, sepWeighted  float64
	}
	aggs := make(map[key]*agg)
	for _, c := range cells {
		if c.Estimator != "" {
			// Estimator cells measure the model-level rare-event risk;
			// pooling their weighted estimates with fixed-scenario counts
			// would corrupt both. They get their own summary section.
			continue
		}
		k := key{c.System, c.Variant, c.Fault}
		a := aggs[k]
		if a == nil {
			a = &agg{}
			aggs[k] = a
		}
		a.cells++
		a.samples += c.Samples
		a.nmacs += c.NMACs
		a.alerted += c.AlertRate * float64(c.Samples)
		a.sepWeighted += c.MeanMinSep * float64(c.Samples)
	}

	var out []SystemSummary
	for _, v := range spec.variantsOrDefault() {
		for _, fp := range spec.faultsOrDefault() {
			var group []SystemSummary
			baselinePNMAC := math.NaN()
			if a, ok := aggs[key{BaselineSystem, v.Name, fp.label()}]; ok && a.samples > 0 {
				baselinePNMAC = float64(a.nmacs) / float64(a.samples)
			}
			for _, sys := range spec.Systems {
				a, ok := aggs[key{sys, v.Name, fp.label()}]
				if !ok || a.samples == 0 {
					continue
				}
				s := SystemSummary{
					System:     sys,
					Variant:    v.Name,
					Fault:      fp.label(),
					Cells:      a.cells,
					Samples:    a.samples,
					NMACs:      a.nmacs,
					PNMAC:      float64(a.nmacs) / float64(a.samples),
					AlertRate:  a.alerted / float64(a.samples),
					MeanMinSep: a.sepWeighted / float64(a.samples),
				}
				if !math.IsNaN(baselinePNMAC) && baselinePNMAC > 0 {
					s.RiskRatio = s.PNMAC / baselinePNMAC
					s.HasRiskRatio = true
				}
				group = append(group, s)
			}
			sort.SliceStable(group, func(i, j int) bool {
				a, b := group[i], group[j]
				if a.HasRiskRatio != b.HasRiskRatio {
					return a.HasRiskRatio
				}
				if a.HasRiskRatio && a.RiskRatio != b.RiskRatio {
					return a.RiskRatio < b.RiskRatio
				}
				if a.PNMAC != b.PNMAC {
					return a.PNMAC < b.PNMAC
				}
				return a.System < b.System
			})
			out = append(out, group...)
		}
	}
	return out
}

// SummaryTable renders the ranked summaries as an aligned text table. The
// fault column appears only when some group ran under a named fault
// point, so unfaulted sweeps keep their historical layout.
func (r *Result) SummaryTable() string {
	withFaults := false
	for _, s := range r.Summaries {
		if s.Fault != "" {
			withFaults = true
			break
		}
	}
	var b strings.Builder
	if withFaults {
		fmt.Fprintf(&b, "%-10s %-14s %-10s %6s %8s %9s %11s %14s %11s\n",
			"system", "variant", "fault", "cells", "samples", "P(NMAC)", "alert rate", "mean min sep", "risk ratio")
	} else {
		fmt.Fprintf(&b, "%-10s %-14s %6s %8s %9s %11s %14s %11s\n",
			"system", "variant", "cells", "samples", "P(NMAC)", "alert rate", "mean min sep", "risk ratio")
	}
	for _, s := range r.Summaries {
		ratio := "-"
		if s.HasRiskRatio {
			ratio = fmt.Sprintf("%.4f", s.RiskRatio)
		}
		if withFaults {
			flt := s.Fault
			if flt == "" {
				flt = "-"
			}
			fmt.Fprintf(&b, "%-10s %-14s %-10s %6d %8d %9.4f %11.2f %12.1f m %11s\n",
				s.System, s.Variant, flt, s.Cells, s.Samples, s.PNMAC, s.AlertRate, s.MeanMinSep, ratio)
		} else {
			fmt.Fprintf(&b, "%-10s %-14s %6d %8d %9.4f %11.2f %12.1f m %11s\n",
				s.System, s.Variant, s.Cells, s.Samples, s.PNMAC, s.AlertRate, s.MeanMinSep, ratio)
		}
	}
	r.appendEstimatorTable(&b)
	return b.String()
}

// appendEstimatorTable renders the estimator cells (scenario "model") as
// their own section: rare-event P(NMAC) estimates under the statistical
// encounter model, with interval, effective sample size and measured
// variance-reduction factor. Absent when the campaign declared no
// estimator axis, so classic summaries keep their historical layout.
func (r *Result) appendEstimatorTable(b *strings.Builder) {
	var rows []CellResult
	for _, c := range r.Cells {
		if c.Estimator != "" {
			rows = append(rows, c)
		}
	}
	if len(rows) == 0 {
		return
	}
	if b.Len() > 0 {
		b.WriteByte('\n')
	}
	fmt.Fprintf(b, "rare-event estimates (statistical encounter model)\n")
	fmt.Fprintf(b, "%-10s %-10s %-14s %-10s %8s %7s %11s %24s %9s %6s\n",
		"estimator", "system", "variant", "fault", "episodes", "nmacs", "P(NMAC)", "interval", "ESS", "VRF")
	for _, c := range rows {
		flt := c.Fault
		if flt == "" {
			flt = "-"
		}
		fmt.Fprintf(b, "%-10s %-10s %-14s %-10s %8d %7d %11.3e [%9.3e, %9.3e] %9.1f %6.1f\n",
			c.Estimator, c.System, c.Variant, flt, c.Samples, c.NMACs,
			c.PNMAC, c.PNMACLo, c.PNMACHi, c.ESS, c.VarianceReduction)
	}
}
