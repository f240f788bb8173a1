package acasxval

import (
	"acasxval/internal/acasx"
	"acasxval/internal/campaign"
	"acasxval/internal/encounter"
	"acasxval/internal/fault"
	"acasxval/internal/ga"
	"acasxval/internal/grid2d"
	"acasxval/internal/montecarlo"
	"acasxval/internal/search"
	"acasxval/internal/sim"
	"acasxval/internal/sys"
)

// Re-exported types: the public API surface of the library. Aliases keep
// the implementation in focused internal packages while giving downstream
// users a single import.
type (
	// TableConfig parameterizes logic-table generation (grids, dynamics,
	// costs).
	TableConfig = acasx.Config
	// Table is a generated or loaded ACAS XU-style logic table.
	Table = acasx.Table

	// EncounterParams are the paper's nine encounter parameters.
	EncounterParams = encounter.Params
	// MultiEncounterParams describe a one-ownship, K-intruder encounter:
	// one pairwise EncounterParams per intruder sharing the ownship state.
	MultiEncounterParams = encounter.MultiParams
	// Geometry classifies an encounter (head-on / tail approach /
	// crossing).
	Geometry = encounter.Geometry

	// RunConfig parameterizes one encounter simulation.
	RunConfig = sim.RunConfig
	// RunResult summarizes one simulated encounter.
	RunResult = sim.Result
	// System is a pluggable collision avoidance system under test.
	System = sim.System

	// SystemSpec names a registered system backend and optionally
	// overrides scalar parameters of its default configuration.
	SystemSpec = sys.Spec
	// SystemContext carries shared resources (the logic table) into
	// system construction.
	SystemContext = sys.Context
	// SystemBackend is one registered collision avoidance backend.
	SystemBackend = sys.Backend

	// Evaluation is one recorded fitness evaluation.
	Evaluation = ga.Evaluation

	// SystemFactory builds fresh systems for one evaluation.
	SystemFactory = montecarlo.SystemFactory

	// EncounterModel is a statistical encounter model for Monte-Carlo
	// estimation.
	EncounterModel = montecarlo.EncounterModel
	// MultiEncounterModel is the K-intruder statistical encounter model:
	// one pairwise EncounterModel per intruder, sampled onto a shared
	// ownship state.
	MultiEncounterModel = montecarlo.MultiEncounterModel
	// MonteCarloConfig parameterizes risk estimation.
	MonteCarloConfig = montecarlo.Config
	// RiskEstimate is a Monte-Carlo risk estimate.
	RiskEstimate = montecarlo.Estimate
	// RareEventSpec selects and tunes a rare-event estimator: importance
	// sampling over a danger-archive proposal mixture, or multi-level
	// splitting down a separation-level ladder.
	RareEventSpec = montecarlo.RareEventSpec

	// Grid2DConfig parameterizes the section III example.
	Grid2DConfig = grid2d.Config
	// Grid2DModel is the section III MDP.
	Grid2DModel = grid2d.Model
	// Grid2DTable is the section III generated logic table.
	Grid2DTable = grid2d.LogicTable

	// FaultProfile declares a deterministic surveillance degradation
	// condition: Gilbert-Elliott burst dropout, a hard detection-range
	// limit, per-aircraft measurement latency, and a scheduled
	// coordination-link loss window. The zero value is the clean channel.
	// Set it on RunConfig.Faults (or MonteCarloConfig.Run.Faults) to
	// degrade every sensor measurement the systems under test consume.
	FaultProfile = fault.Profile

	// CampaignSpec declares a validation campaign: scenarios x systems x
	// configuration variants.
	CampaignSpec = campaign.Spec
	// CampaignResult is the outcome of a campaign run.
	CampaignResult = campaign.Result
	// CampaignSystems maps system names to factories for campaign runs.
	CampaignSystems = campaign.SystemSet
	// CampaignScenario is one explicit fixed scenario of a campaign
	// (typically a reloaded danger-archive entry).
	CampaignScenario = campaign.Scenario
	// CampaignFaultPoint is one point of a campaign's fault axis: a named
	// surveillance degradation condition crossed with every scenario,
	// system and variant. Fault points replay the same episode seeds as
	// their clean siblings, so differences along the axis are paired
	// degradation effects, not sampling noise.
	CampaignFaultPoint = campaign.FaultPoint

	// SearchSpec declares an island-model adversarial search.
	SearchSpec = search.Spec
	// SearchOptions control one search invocation (checkpoint path,
	// early stop, progress observer).
	SearchOptions = search.Options
	// IslandSearchResult is the outcome of an island-model search.
	IslandSearchResult = search.Result
	// IslandStats is one island's per-generation progress report.
	IslandStats = search.IslandStats
	// DangerArchiveEntry is one archived dangerous encounter.
	DangerArchiveEntry = search.ArchiveEntry
)

// DefaultTableConfig returns the full-resolution logic-table
// parameterization.
func DefaultTableConfig() TableConfig { return acasx.DefaultConfig() }

// CoarseTableConfig returns a reduced-resolution table for quick
// experiments.
func CoarseTableConfig() TableConfig { return acasx.CoarseConfig() }

// BuildLogicTable runs the offline model-based optimization: backward
// induction value iteration over the encounter MDP.
func BuildLogicTable(cfg TableConfig) (*Table, error) { return acasx.BuildTable(cfg) }

// NewSystem constructs a collision avoidance system from the central
// backend registry: spec.Name selects the backend ("acasx", "belief",
// "svo", "mpc", "apf", "none"),
// spec.Params overrides its documented scalar parameters, and ctx supplies
// the logic table for the table-driven executives.
func NewSystem(ctx SystemContext, spec SystemSpec) (System, error) {
	return sys.New(ctx, spec)
}

// NewSystemFactory resolves a spec once and returns a factory producing
// fresh (ownship, intruder) system pairs — the shape the Monte-Carlo,
// search and campaign machinery consumes.
func NewSystemFactory(ctx SystemContext, spec SystemSpec) (func() (System, System), error) {
	return sys.PairFactory(ctx, spec)
}

// SystemNames lists the registered backend names in sorted order.
func SystemNames() []string { return sys.Names() }

// LookupSystem returns the named backend's registration (documentation,
// parameter docs, table requirement).
func LookupSystem(name string) (SystemBackend, bool) { return sys.Lookup(name) }

// NoAvoidance returns the unequipped baseline system: it never commands.
// It is stateless, so one value can equip any number of aircraft.
func NoAvoidance() System { return sim.NoSystem{} }

// Unequipped is the SystemFactory for aircraft with no collision
// avoidance.
var Unequipped = montecarlo.Unequipped

// DefaultRunConfig returns the paper-style simulation configuration.
func DefaultRunConfig() RunConfig { return sim.DefaultRunConfig() }

// FaultPreset looks up a named surveillance degradation profile ("none",
// "light", "moderate" or "severe"; "none" is the clean channel).
func FaultPreset(name string) (FaultProfile, error) { return fault.Preset(name) }

// RunEncounter simulates one encounter (deterministic under seed). It
// builds a fresh simulation world per call; the Monte-Carlo estimates
// reuse one world per worker instead.
func RunEncounter(p EncounterParams, own, intruder System, cfg RunConfig, seed uint64) (RunResult, error) {
	return sim.RunEncounter(p, own, intruder, cfg, seed)
}

// RunMultiEncounter simulates one encounter between the ownship and the
// scenario's K intruders: systems[0] equips the ownship, systems[j]
// intruder j (use Unequipped's systems for unequipped aircraft). The
// ownship resolves all K threats per decision cycle, fusing per-intruder
// logic queries most-restrictive-first when its system supports it. A
// single-intruder call is bit-identical to RunEncounter.
func RunMultiEncounter(m MultiEncounterParams, systems []System, cfg RunConfig, seed uint64) (RunResult, error) {
	return sim.RunMultiEncounter(m, systems, cfg, seed)
}

// Preset encounters from the paper's figures.
var (
	// PresetHeadOn is the Fig. 5 head-on geometry.
	PresetHeadOn = encounter.PresetHeadOn
	// PresetTailApproach is the Figs. 7-8 tail-approach geometry.
	PresetTailApproach = encounter.PresetTailApproach
)

// MultiEncounterPreset looks up a named preset as a K-intruder encounter:
// the multi-intruder names (MultiEncounterPresetNames: the canonical K >= 2
// geometries integrated-airspace traffic produces and pairwise validation
// never exercises) plus every pairwise preset wrapped as a single-intruder
// encounter.
func MultiEncounterPreset(name string) (MultiEncounterParams, error) {
	return encounter.MultiPreset(name)
}

// MultiEncounterPresetNames lists the multi-intruder presets.
func MultiEncounterPresetNames() []string { return encounter.MultiPresetNames() }

// Classify derives the geometry class of an encounter.
func Classify(p EncounterParams) Geometry { return encounter.Classify(p) }

// ClassifyMulti classifies a K-intruder encounter by its dominant (highest
// initial closure) pairwise geometry.
func ClassifyMulti(m MultiEncounterParams) Geometry { return encounter.ClassifyMulti(m) }

// DefaultEncounterModel returns the parametric UAV airspace model used for
// Monte-Carlo estimation.
func DefaultEncounterModel() EncounterModel { return montecarlo.DefaultEncounterModel() }

// DefaultMonteCarloConfig returns the risk-estimation defaults.
func DefaultMonteCarloConfig() MonteCarloConfig { return montecarlo.DefaultConfig() }

// PointEncounterModel returns the degenerate encounter model that always
// yields p: every episode replays the same geometry under fresh stochastic
// dynamics and sensor noise — the campaign engine's per-cell view.
func PointEncounterModel(p EncounterParams) EncounterModel { return montecarlo.PointModel(p) }

// DefaultMultiEncounterModel returns k independent copies of the default
// airspace model sampled onto a shared ownship state per episode.
func DefaultMultiEncounterModel(k int) MultiEncounterModel {
	return montecarlo.DefaultMultiEncounterModel(k)
}

// RiskRatio is P(NMAC | equipped) / P(NMAC | unequipped).
func RiskRatio(equipped, unequipped *RiskEstimate) (float64, error) {
	return montecarlo.RiskRatio(equipped, unequipped)
}

// DefaultRareEventSpec returns a ready-to-run rare-event estimator spec for
// the given method: "bruteforce", "is", "snis" or "split".
func DefaultRareEventSpec(method string) RareEventSpec {
	return montecarlo.DefaultRareEventSpec(method)
}

// ArchiveProposalKernels converts danger-archive entries
// (LoadDangerArchive) into importance-sampling proposal kernels for
// RareEventSpec.Kernels: the adversarial search's failure region steers the
// estimator toward the events it is trying to count.
func ArchiveProposalKernels(entries []DangerArchiveEntry) ([][]float64, error) {
	return search.ProposalKernels(entries)
}

// DefaultCampaignSpec returns a campaign skeleton: every named preset
// against the unequipped baseline.
func DefaultCampaignSpec() CampaignSpec { return campaign.DefaultSpec() }

// DefaultCampaignSystems returns every registered backend under its
// default configuration for campaign runs: "none", "svo", "mpc" and "apf"
// always, plus "acasx" and "belief" when table is non-nil.
func DefaultCampaignSystems(table *Table) CampaignSystems { return campaign.DefaultSystems(table) }

// DefaultSearchSpec returns the paper-scale island search: 4 islands of 50
// individuals (the paper's total population of 200) for 5 generations.
func DefaultSearchSpec() SearchSpec { return search.DefaultSpec() }

// LoadDangerArchive reads a danger-archive JSONL file written by a
// search. truncated reports a half-written trailing line, which is
// skipped.
func LoadDangerArchive(path string) (entries []DangerArchiveEntry, truncated bool, err error) {
	return search.LoadArchiveFile(path)
}

// ArchiveCampaignScenarios converts danger-archive entries into explicit
// campaign scenarios, closing the sweep -> search -> archive -> sweep loop.
func ArchiveCampaignScenarios(entries []DangerArchiveEntry) ([]CampaignScenario, error) {
	return search.CampaignScenarios(entries)
}

// SweepSeedGenomes extracts worst-first seed genomes from a campaign
// sweep's JSONL output file, for SearchSpec.SeedGenomes. truncated
// reports a half-written trailing line, which is skipped.
func SweepSeedGenomes(path string, limit int) (seeds [][]float64, truncated bool, err error) {
	return search.SweepSeedsFile(path, limit)
}

// DefaultGrid2DConfig returns the paper's section III parameterization.
func DefaultGrid2DConfig() Grid2DConfig { return grid2d.DefaultConfig() }

// NewGrid2D builds the section III model.
func NewGrid2D(cfg Grid2DConfig) (*Grid2DModel, error) { return grid2d.New(cfg) }

// SolveGrid2D generates the section III logic table by value iteration.
func SolveGrid2D(m *Grid2DModel) (*Grid2DTable, error) { return grid2d.Solve(m) }
