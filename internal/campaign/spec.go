// Package campaign implements the declarative sweep engine for large-scale
// scenario validation. The paper's central argument is that a model-optimized
// collision avoidance system cannot be trusted on the strength of single
// scenario checks (the Fig. 5 head-on, the Figs. 7-8 tail approaches); it has
// to be exercised against *many* encounters, systems and configurations. A
// campaign is the cross-product of
//
//   - scenarios: named encounter presets and/or draws from a statistical
//     encounter model,
//   - systems: unequipped baseline, ACAS XU table logic, the belief-weighted
//     executive, the SVO baseline,
//   - variants: run-configuration and sample-count variations (coordination
//     on/off, tracker on/off, decision rate, ...),
//
// fanned out over a deterministic seed-derived worker pool. Each cell of the
// product replays one fixed scenario through the Monte-Carlo harness (the
// stochastic dynamics and sensor noise still vary per sample), streams a
// JSONL record, and feeds an aggregate summary that ranks systems by risk
// ratio against the unequipped baseline.
//
// Campaigns are files, not flags: Spec parses from the same ECJ-style
// parameter format that drives the GA search (see FromConfig), so a sweep is
// checked in, versioned, and reproducible byte-for-byte under its seed.
package campaign

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"acasxval/internal/config"
	"acasxval/internal/encounter"
	"acasxval/internal/fault"
	"acasxval/internal/montecarlo"
	"acasxval/internal/sim"
	"acasxval/internal/stats"
)

// FaultPoint is one point of the campaign's fault axis: a named
// surveillance-degradation profile crossed against every scenario,
// system and variant. The conventional name for the zero profile is
// "none"; cells under it serialize without a fault field and are
// byte-identical to a campaign with no fault axis at all.
type FaultPoint struct {
	// Name labels the point in cell records and summaries.
	Name string
	// Profile is the degradation applied to every run of the point's
	// cells.
	Profile fault.Profile
}

// label returns the name recorded in cell results: empty for a disabled
// profile, so unfaulted sweeps keep their historical byte stream.
func (fp FaultPoint) label() string {
	if !fp.Profile.Enabled() {
		return ""
	}
	return fp.Name
}

// Variant is one run-configuration axis point: a named set of overrides
// applied on top of the campaign's base RunConfig. Nil pointer fields
// inherit the base value.
type Variant struct {
	// Name labels the variant in cell records and summaries.
	Name string
	// Samples overrides the campaign's per-cell sample count (0 inherits).
	Samples int
	// Coordination toggles maneuver-sense coordination.
	Coordination *bool
	// UseTracker toggles alpha-beta filtering of the received track.
	UseTracker *bool
	// DecisionPeriod overrides the decision interval, seconds.
	DecisionPeriod *float64
	// Overtime overrides the post-CPA simulated overtime, seconds.
	Overtime *float64
}

// apply returns the base configuration with the variant's overrides set.
func (v Variant) apply(base sim.RunConfig) sim.RunConfig {
	if v.Coordination != nil {
		base.Coordination = *v.Coordination
	}
	if v.UseTracker != nil {
		base.UseTracker = *v.UseTracker
	}
	if v.DecisionPeriod != nil {
		base.DecisionPeriod = *v.DecisionPeriod
	}
	if v.Overtime != nil {
		base.Overtime = *v.Overtime
	}
	return base
}

// samples returns the variant's effective per-cell sample count.
func (v Variant) samples(base int) int {
	if v.Samples > 0 {
		return v.Samples
	}
	return base
}

// Scenario is one explicit fixed encounter scenario: a name and the
// encounter parameters of its one-ownship, K-intruder geometry (a classic
// pairwise scenario is the K = 1 case — wrap its Params with
// encounter.Params.Multi). Explicit scenarios let a campaign replay
// encounters that are not shipped presets — most importantly the entries
// of a danger archive written by the adversarial search engine, closing
// the sweep -> search -> archive -> sweep loop.
type Scenario struct {
	// Name labels the scenario in cell records (must be unique across the
	// campaign's scenario axis).
	Name string
	// Params are the encounter parameters replayed by the scenario.
	Params encounter.MultiParams
}

// Spec declares a campaign: which scenarios to run, against which systems,
// under which configuration variants.
type Spec struct {
	// Name labels the campaign in its output records.
	Name string

	// Presets are named encounter presets: the pairwise names
	// (encounter.PresetNames) and/or the multi-intruder names
	// (encounter.MultiPresetNames), resolved through encounter.MultiPreset
	// so one axis mixes both.
	Presets []string
	// Scenarios are explicit fixed scenarios appended after the presets
	// (typically reloaded danger-archive entries).
	Scenarios []Scenario
	// ModelDraws adds this many scenarios sampled from Model. Draws are
	// seed-derived, so the same spec always sweeps the same scenarios.
	ModelDraws int
	// Model is the statistical encounter model sampled for ModelDraws.
	// The zero value means the default UAV airspace model.
	Model *montecarlo.EncounterModel
	// Intruders is the intruder count K of each model-draw scenario
	// (0 or 1 keeps the classic pairwise draws; presets and explicit
	// scenarios carry their own K).
	Intruders int

	// Systems are the collision avoidance systems under test, by name
	// (see DefaultSystems; the sys registry lists the valid names).
	Systems []string

	// Variants are the run-configuration axis. Empty means a single
	// implicit "default" variant.
	Variants []Variant

	// Faults is the surveillance-degradation axis, crossed against
	// preset x system x variant like variants are. Empty means a single
	// implicit point: the zero profile, or Run.Faults when the base run
	// configuration already carries one (the facade pass-through).
	// Fault points deliberately do not enter the cell-seed identity, so
	// every severity level replays the same episode seeds as its clean
	// sibling — severity comparisons are paired, and an axis of just
	// "none" is byte-identical to no axis at all.
	Faults []FaultPoint

	// Estimators is the rare-event estimator axis: each named method
	// (montecarlo.Methods) re-estimates P(NMAC) under the statistical
	// encounter model itself — not a fixed scenario — for every system,
	// variant and fault point. Estimator cells are appended after the
	// classic fixed-scenario grid under the reserved scenario name
	// "model", so declaring the axis never perturbs existing cell bytes.
	// Empty means no estimator cells.
	Estimators []string
	// EstimatorSpec carries the shared estimator tuning — archive kernels,
	// defensive weight, splitting ladder — applied to every Estimators
	// point; its Method field is overridden by each point's name.
	EstimatorSpec montecarlo.RareEventSpec

	// Samples is the per-cell simulation count (noise seeds vary per
	// sample; default 10).
	Samples int
	// Run is the base simulation configuration variants derive from.
	Run sim.RunConfig
	// Seed makes the whole campaign reproducible: scenario draws, per-cell
	// sampling, and dynamics seeds all derive from it.
	Seed uint64
	// Parallelism bounds concurrent cells (0 = NumCPU; values above the
	// CPU count are clamped to it, matching the offline solver's worker
	// pool — campaign cells are CPU-bound, so extra workers only thrash).
	Parallelism int
}

// DefaultSpec returns a campaign skeleton: all named presets against the
// unequipped baseline, 10 samples per cell, the paper-style run
// configuration, seed 1.
func DefaultSpec() Spec {
	return Spec{
		Name:    "campaign",
		Presets: encounter.PresetNames(),
		Systems: []string{"none"},
		Samples: 10,
		Run:     sim.DefaultRunConfig(),
		Seed:    1,
	}
}

// variantsOrDefault returns the variant axis, inserting the implicit
// "default" variant when none are declared.
func (s Spec) variantsOrDefault() []Variant {
	if len(s.Variants) == 0 {
		return []Variant{{Name: "default"}}
	}
	return s.Variants
}

// faultsOrDefault returns the fault axis, inserting the implicit single
// point when none is declared: the base run configuration's profile
// (named "base") when it is enabled, the zero "none" profile otherwise.
func (s Spec) faultsOrDefault() []FaultPoint {
	if len(s.Faults) == 0 {
		if s.Run.Faults.Enabled() {
			return []FaultPoint{{Name: "base", Profile: s.Run.Faults}}
		}
		return []FaultPoint{{Name: "none"}}
	}
	return s.Faults
}

// model returns the encounter model sampled for ModelDraws.
func (s Spec) model() montecarlo.EncounterModel {
	if s.Model != nil {
		return *s.Model
	}
	return montecarlo.DefaultEncounterModel()
}

// intrudersOrDefault returns the model-draw intruder count (at least 1).
func (s Spec) intrudersOrDefault() int {
	if s.Intruders < 1 {
		return 1
	}
	return s.Intruders
}

// multiModel returns the K-intruder model sampled for ModelDraws: the
// pairwise model replicated across every intruder. A K of 1 samples the
// exact stream the classic pairwise draws did.
func (s Spec) multiModel() montecarlo.MultiEncounterModel {
	base := s.model()
	m := montecarlo.MultiEncounterModel{
		Intruders: make([]montecarlo.EncounterModel, s.intrudersOrDefault()),
	}
	for i := range m.Intruders {
		m.Intruders[i] = base
	}
	return m
}

// Canonical returns the spec in semantic normal form: every implicit
// default made explicit and every scheduling-only field cleared, so two
// specs that describe the same campaign compare — and hash — equal. The
// normalizations mirror the defaults the run path applies: the implicit
// "default" variant, the implicit fault point, the default encounter
// model, the pairwise intruder count, and the estimator tuning of a spec
// with no estimator axis (which never executes and must not perturb the
// identity). Parallelism is dropped because estimates are worker-count
// invariant — resubmitting a campaign with a different worker budget must
// hit the completed-cell cache, not recompute.
func (s Spec) Canonical() Spec {
	s.Variants = append([]Variant(nil), s.variantsOrDefault()...)
	s.Faults = append([]FaultPoint(nil), s.faultsOrDefault()...)
	m := s.model()
	s.Model = &m
	s.Intruders = s.intrudersOrDefault()
	if len(s.Estimators) == 0 {
		s.EstimatorSpec = montecarlo.RareEventSpec{}
	}
	s.Parallelism = 0
	return s
}

// Validate checks the campaign declaration without running it.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("campaign: empty name")
	}
	if len(s.Presets) == 0 && len(s.Scenarios) == 0 && s.ModelDraws <= 0 && len(s.Estimators) == 0 {
		return fmt.Errorf("campaign: no scenarios (want presets, explicit scenarios, model draws and/or estimators)")
	}
	if s.ModelDraws < 0 {
		return fmt.Errorf("campaign: negative model draws %d", s.ModelDraws)
	}
	seenScenario := make(map[string]bool, len(s.Presets)+len(s.Scenarios))
	for _, name := range s.Presets {
		if seenScenario[name] {
			return fmt.Errorf("campaign: duplicate preset %q", name)
		}
		seenScenario[name] = true
		if _, err := encounter.MultiPreset(name); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	if s.Intruders < 0 {
		return fmt.Errorf("campaign: negative intruder count %d", s.Intruders)
	}
	for _, sc := range s.Scenarios {
		if sc.Name == "" {
			return fmt.Errorf("campaign: scenario with empty name")
		}
		if seenScenario[sc.Name] {
			return fmt.Errorf("campaign: duplicate scenario %q", sc.Name)
		}
		seenScenario[sc.Name] = true
		// Params.Validate rejects the zero-intruder zero value and
		// non-canonical shared-ownship forms here, with the scenario's
		// name attached — not mid-sweep from an anonymous cell.
		if err := sc.Params.Validate(); err != nil {
			return fmt.Errorf("campaign: scenario %q: %w", sc.Name, err)
		}
		if !stats.AllFinite(sc.Params.Vector()...) {
			return fmt.Errorf("campaign: scenario %q has a non-finite parameter", sc.Name)
		}
	}
	// Model-draw scenarios are named at expansion time; a preset or
	// explicit scenario reusing such a name would collide in the cell
	// stream and share its seed identity. Scan the declared names (not
	// the draw count, which may be huge) for collisions.
	for name := range seenScenario {
		suffix, ok := strings.CutPrefix(name, "model/")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(suffix)
		if err == nil && n >= 0 && n < s.ModelDraws && name == modelDrawName(n) {
			return fmt.Errorf("campaign: scenario name %q collides with a model draw", name)
		}
	}
	if s.ModelDraws > 0 {
		if err := s.model().Validate(); err != nil {
			return err
		}
	}
	if len(s.Systems) == 0 {
		return fmt.Errorf("campaign: no systems under test")
	}
	seenSys := make(map[string]bool, len(s.Systems))
	for _, name := range s.Systems {
		if name == "" {
			return fmt.Errorf("campaign: empty system name")
		}
		if seenSys[name] {
			return fmt.Errorf("campaign: duplicate system %q", name)
		}
		seenSys[name] = true
	}
	if s.Samples < 1 {
		return fmt.Errorf("campaign: samples %d < 1", s.Samples)
	}
	seenVar := make(map[string]bool, len(s.Variants))
	for _, v := range s.variantsOrDefault() {
		if v.Name == "" {
			return fmt.Errorf("campaign: variant with empty name")
		}
		if seenVar[v.Name] {
			return fmt.Errorf("campaign: duplicate variant %q", v.Name)
		}
		seenVar[v.Name] = true
		if v.Samples < 0 {
			return fmt.Errorf("campaign: variant %q: negative samples %d", v.Name, v.Samples)
		}
		if err := v.apply(s.Run).Validate(); err != nil {
			return fmt.Errorf("campaign: variant %q: %w", v.Name, err)
		}
	}
	seenEst := make(map[string]bool, len(s.Estimators))
	for _, m := range s.Estimators {
		if m == "" {
			return fmt.Errorf("campaign: empty estimator method")
		}
		if seenEst[m] {
			return fmt.Errorf("campaign: duplicate estimator method %q", m)
		}
		seenEst[m] = true
		es := s.EstimatorSpec
		es.Method = m
		if err := es.Validate(); err != nil {
			return fmt.Errorf("campaign: estimator %q: %w", m, err)
		}
	}
	if len(s.Estimators) > 0 {
		if seenScenario[estimatorScenario] {
			return fmt.Errorf("campaign: scenario name %q is reserved for estimator cells", estimatorScenario)
		}
		// Estimator cells sample the statistical model even when no
		// model-draw scenarios do.
		if err := s.model().Validate(); err != nil {
			return err
		}
	}
	seenFault := make(map[string]bool, len(s.Faults))
	disabled := 0
	for _, fp := range s.faultsOrDefault() {
		if fp.Name == "" {
			return fmt.Errorf("campaign: fault point with empty name")
		}
		if seenFault[fp.Name] {
			return fmt.Errorf("campaign: duplicate fault point %q", fp.Name)
		}
		seenFault[fp.Name] = true
		if err := fp.Profile.Validate(); err != nil {
			return fmt.Errorf("campaign: fault point %q: %w", fp.Name, err)
		}
		if !fp.Profile.Enabled() {
			// Disabled points all serialize with the empty fault label,
			// so a second one would be indistinguishable in the record
			// stream and the summaries.
			if disabled++; disabled > 1 {
				return fmt.Errorf("campaign: fault axis has more than one fault-free point")
			}
		}
	}
	return nil
}

// FromConfig reads a Spec from an ECJ-style parameter set. Recognized keys
// (defaults from DefaultSpec):
//
//	campaign.name
//	campaign.presets            comma list (pairwise and/or multi-intruder
//	                            preset names), or "all" for every pairwise
//	                            preset
//	campaign.model.draws        sampled encounter-model scenarios
//	campaign.model.hmd          "min, max" uniform prior replacing the
//	                            model's CPA horizontal miss distance
//	campaign.model.vmd          "min, max" uniform prior replacing the
//	                            model's CPA vertical miss distance
//	campaign.intruders          intruder count K of each model draw
//	                            (default 1, the classic pairwise draws)
//	campaign.systems            comma list of registered system names
//	campaign.samples            simulations per cell
//	campaign.seed
//	campaign.parallelism
//	run.decision.period         base run-config overrides
//	run.overtime
//	run.coordination
//	run.tracker
//	campaign.variant.N.name     variant axis, N = 0, 1, ... (contiguous)
//	campaign.variant.N.samples
//	campaign.variant.N.coordination
//	campaign.variant.N.tracker
//	campaign.variant.N.decision.period
//	campaign.variant.N.overtime
//	campaign.faults             fault axis: comma list of preset severity
//	                            profiles (fault.PresetNames), or "all"
//	campaign.faults.N.name      custom fault points appended after the
//	                            presets, N = 0, 1, ... (contiguous)
//	campaign.faults.N.preset    optional base profile the fields override
//	campaign.faults.N.burst.enter
//	campaign.faults.N.burst.exit
//	campaign.faults.N.burst.drop
//	campaign.faults.N.range
//	campaign.faults.N.latency
//	campaign.faults.N.commloss.start
//	campaign.faults.N.commloss.duration
//	campaign.estimator.methods   rare-event estimator axis: comma list of
//	                             montecarlo.Methods names, or "all"
//	campaign.estimator.defensive shared estimator tuning (see
//	campaign.estimator.bandwidth montecarlo.SpecFromConfig for the full
//	campaign.estimator.levels    field menu and kernel.N rows)
//	campaign.estimator.kernel.N
func FromConfig(c *config.Params) (Spec, error) {
	s := DefaultSpec()
	s.Name = c.StringOr("campaign.name", s.Name)
	s.Presets = c.StringsOr("campaign.presets", s.Presets)
	if len(s.Presets) == 1 && s.Presets[0] == "all" {
		s.Presets = encounter.PresetNames()
	}
	var err error
	if s.ModelDraws, err = c.IntOr("campaign.model.draws", 0); err != nil {
		return s, err
	}
	if err = modelFromConfig(c, &s); err != nil {
		return s, err
	}
	if s.Intruders, err = c.IntOr("campaign.intruders", 0); err != nil {
		return s, err
	}
	s.Systems = c.StringsOr("campaign.systems", s.Systems)
	if s.Samples, err = c.IntOr("campaign.samples", s.Samples); err != nil {
		return s, err
	}
	if s.Seed, err = c.Uint64Or("campaign.seed", s.Seed); err != nil {
		return s, err
	}
	if s.Parallelism, err = c.IntOr("campaign.parallelism", 0); err != nil {
		return s, err
	}
	if s.Run.DecisionPeriod, err = c.FloatOr("run.decision.period", s.Run.DecisionPeriod); err != nil {
		return s, err
	}
	if s.Run.Overtime, err = c.FloatOr("run.overtime", s.Run.Overtime); err != nil {
		return s, err
	}
	if s.Run.Coordination, err = c.BoolOr("run.coordination", s.Run.Coordination); err != nil {
		return s, err
	}
	if s.Run.UseTracker, err = c.BoolOr("run.tracker", s.Run.UseTracker); err != nil {
		return s, err
	}
	for n := 0; ; n++ {
		prefix := fmt.Sprintf("campaign.variant.%d.", n)
		if !c.Has(prefix + "name") {
			break
		}
		v := Variant{Name: c.StringOr(prefix+"name", "")}
		if v.Samples, err = c.IntOr(prefix+"samples", 0); err != nil {
			return s, err
		}
		if c.Has(prefix + "coordination") {
			b, err := c.Bool(prefix + "coordination")
			if err != nil {
				return s, err
			}
			v.Coordination = &b
		}
		if c.Has(prefix + "tracker") {
			b, err := c.Bool(prefix + "tracker")
			if err != nil {
				return s, err
			}
			v.UseTracker = &b
		}
		if c.Has(prefix + "decision.period") {
			f, err := c.Float(prefix + "decision.period")
			if err != nil {
				return s, err
			}
			v.DecisionPeriod = &f
		}
		if c.Has(prefix + "overtime") {
			f, err := c.Float(prefix + "overtime")
			if err != nil {
				return s, err
			}
			v.Overtime = &f
		}
		s.Variants = append(s.Variants, v)
	}
	variantFields := []string{"name", "samples", "coordination", "tracker", "decision.period", "overtime"}
	if err := validateNumberedKeys(c, "campaign.variant.", "variant", len(s.Variants), variantFields); err != nil {
		return s, err
	}
	names := c.StringsOr("campaign.faults", nil)
	if len(names) == 1 && names[0] == "all" {
		names = fault.PresetNames()
	}
	for _, name := range names {
		p, err := fault.Preset(name)
		if err != nil {
			return s, fmt.Errorf("campaign: %w", err)
		}
		s.Faults = append(s.Faults, FaultPoint{Name: name, Profile: p})
	}
	parsedFaults := 0
	for n := 0; ; n++ {
		prefix := fmt.Sprintf("campaign.faults.%d.", n)
		if !c.Has(prefix + "name") {
			break
		}
		p, err := fault.FromConfig(c, prefix)
		if err != nil {
			return s, fmt.Errorf("campaign: fault point %d: %w", n, err)
		}
		s.Faults = append(s.Faults, FaultPoint{Name: c.StringOr(prefix+"name", ""), Profile: p})
		parsedFaults++
	}
	faultFields := append([]string{"name", fault.KeyPreset}, fault.FieldNames()...)
	if err := validateNumberedKeys(c, "campaign.faults.", "fault", parsedFaults, faultFields); err != nil {
		return s, err
	}
	s.Estimators = c.StringsOr("campaign.estimator.methods", nil)
	if len(s.Estimators) == 1 && s.Estimators[0] == "all" {
		s.Estimators = montecarlo.Methods()
	}
	if err := validateEstimatorKeys(c, len(s.Estimators) > 0); err != nil {
		return s, err
	}
	if s.EstimatorSpec, err = montecarlo.SpecFromConfig(c, "campaign.estimator."); err != nil {
		return s, err
	}
	return s, s.Validate()
}

// modelFromConfig applies the optional campaign.model.hmd / .vmd keys:
// each is a "min, max" pair replacing the statistical model's CPA
// miss-distance prior (and matching sampling range) with a uniform
// interval. Widening them spreads the encounter mass away from conflict,
// turning the NMAC into a genuinely rare event — the regime the
// campaign.estimator axis exists for. Specs without these keys keep
// s.Model nil and the default model, so their output is untouched.
func modelFromConfig(c *config.Params, s *Spec) error {
	for _, mk := range []struct {
		key      string
		vertical bool
	}{
		{"campaign.model.hmd", false},
		{"campaign.model.vmd", true},
	} {
		if !c.Has(mk.key) {
			continue
		}
		v, err := c.Floats(mk.key)
		if err != nil {
			return err
		}
		if len(v) != 2 || !(v[0] < v[1]) {
			return fmt.Errorf("%s: want \"min, max\" with min < max, got %v", mk.key, v)
		}
		if s.Model == nil {
			m := montecarlo.DefaultEncounterModel()
			s.Model = &m
		}
		d := montecarlo.Uniform{Min: v[0], Max: v[1]}
		r := encounter.Range{Min: v[0], Max: v[1]}
		if mk.vertical {
			s.Model.VerticalMissDistance = d
			s.Model.Ranges.VerticalMissDistance = r
		} else {
			s.Model.HorizontalMissDistance = d
			s.Model.Ranges.HorizontalMissDistance = r
		}
	}
	return nil
}

// validateEstimatorKeys rejects campaign.estimator.* keys the estimator
// codec does not consume, and estimator tuning declared without the axis —
// either would otherwise silently estimate nothing or the wrong thing.
func validateEstimatorKeys(c *config.Params, haveAxis bool) error {
	const pfx = "campaign.estimator."
	for _, key := range c.Keys() {
		if !strings.HasPrefix(key, pfx) {
			continue
		}
		rest := key[len(pfx):]
		if rest == montecarlo.KeyMethod {
			return fmt.Errorf("campaign: %q: the estimator axis is declared as campaign.estimator.methods (a comma list)", key)
		}
		if rest == "methods" {
			continue
		}
		if !montecarlo.IsSpecKey(rest) {
			return fmt.Errorf("campaign: unknown estimator key %q (want methods, %s, or kernel.N)",
				key, strings.Join(montecarlo.SpecFieldNames(), ", "))
		}
		if !haveAxis {
			return fmt.Errorf("campaign: orphaned estimator key %q (declare campaign.estimator.methods to enable the axis)", key)
		}
	}
	return nil
}

// validateNumberedKeys rejects <prefix>N.field keys the parse loop did not
// consume. The loop reads points 0..parsed-1, stopping at the first one
// without a name, so a numbering gap, a point without a name, or a typoed
// field would otherwise silently run the wrong configuration.
func validateNumberedKeys(c *config.Params, prefix, noun string, parsed int, fields []string) error {
	for _, key := range c.Keys() {
		rest, ok := strings.CutPrefix(key, prefix)
		if !ok {
			continue
		}
		index, field, hasField := strings.Cut(rest, ".")
		n, err := strconv.Atoi(index)
		if !hasField || err != nil || n < 0 || strconv.Itoa(n) != index {
			return fmt.Errorf("campaign: malformed %s key %q (want %sN.field)", noun, key, prefix)
		}
		if n >= parsed {
			return fmt.Errorf("campaign: orphaned %s key %q (numbered contiguously from 0, each with a name)", noun, key)
		}
		if !slices.Contains(fields, field) {
			return fmt.Errorf("campaign: unknown %s field in %q (want one of %s)", noun, key, strings.Join(fields, ", "))
		}
	}
	return nil
}

// Load reads and parses a campaign spec from an ECJ-style parameter file.
func Load(path string) (Spec, error) {
	params, err := config.Load(path)
	if err != nil {
		return Spec{}, err
	}
	return FromConfig(params)
}
