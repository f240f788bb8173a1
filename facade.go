package acasxval

import (
	"context"

	"acasxval/internal/acasx"
	"acasxval/internal/campaign"
	"acasxval/internal/core"
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
	// Advisory is a resolution advisory.
	Advisory = acasx.Advisory
	// Logic is the online advisory executive around a Table.
	Logic = acasx.Logic
	// SenseMask restricts advisory senses (coordination constraints).
	SenseMask = acasx.SenseMask

	// EncounterParams are the paper's nine encounter parameters.
	EncounterParams = encounter.Params
	// MultiEncounterParams describe a one-ownship, K-intruder encounter:
	// one pairwise EncounterParams per intruder sharing the ownship state.
	MultiEncounterParams = encounter.MultiParams
	// EncounterRanges bound the encounter search space.
	EncounterRanges = encounter.Ranges
	// Geometry classifies an encounter (head-on / tail approach /
	// crossing).
	Geometry = encounter.Geometry

	// RunConfig parameterizes one encounter simulation.
	RunConfig = sim.RunConfig
	// RunResult summarizes one simulated encounter.
	RunResult = sim.Result
	// TrajectoryPoint is one recorded trajectory sample.
	TrajectoryPoint = sim.TrajectoryPoint
	// System is a pluggable collision avoidance system under test.
	System = sim.System
	// AvoidanceSystem is the multi-intruder-first decision contract the
	// encounter engine consults; pairwise Systems are lifted onto it with
	// AdaptSystem.
	AvoidanceSystem = sim.AvoidanceSystem

	// SystemSpec names a registered system backend and optionally
	// overrides scalar parameters of its default configuration.
	SystemSpec = sys.Spec
	// SystemContext carries shared resources (the logic table) into
	// system construction.
	SystemContext = sys.Context
	// SystemBackend is one registered collision avoidance backend.
	SystemBackend = sys.Backend
	// SystemParamDoc documents one overridable backend parameter.
	SystemParamDoc = sys.ParamDoc

	// GAParams configure the genetic algorithm.
	GAParams = ga.Params
	// GenerationStats summarize one GA generation.
	GenerationStats = ga.GenerationStats
	// Evaluation is one recorded fitness evaluation.
	Evaluation = ga.Evaluation

	// FitnessConfig parameterizes the paper's fitness function.
	FitnessConfig = core.FitnessConfig
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
	// CampaignVariant is one run-configuration axis point of a campaign.
	CampaignVariant = campaign.Variant
	// CampaignCell is one evaluated cell of the campaign cross-product.
	CampaignCell = campaign.CellResult
	// CampaignSummary is one ranked (system, variant) aggregate.
	CampaignSummary = campaign.SystemSummary
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
	// SearchOptions control one search invocation (checkpointing, resume,
	// early stop, progress observer).
	SearchOptions = search.Options
	// IslandSearchResult is the outcome of an island-model search.
	IslandSearchResult = search.Result
	// RandomSearchResult is the outcome of the uniform random baseline.
	RandomSearchResult = search.RandomResult
	// IslandStats is one island's per-generation progress report.
	IslandStats = search.IslandStats
	// DangerArchive is the deduplicated store of discovered dangerous
	// encounters.
	DangerArchive = search.Archive
	// DangerArchiveEntry is one archived dangerous encounter.
	DangerArchiveEntry = search.ArchiveEntry
)

// Advisories.
const (
	COC                   = acasx.COC
	Climb1500             = acasx.Climb1500
	Descend1500           = acasx.Descend1500
	StrengthenClimb2500   = acasx.StrengthenClimb2500
	StrengthenDescend2500 = acasx.StrengthenDescend2500
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

// LoadLogicTable reads a table produced by Table.Save.
func LoadLogicTable(path string) (*Table, error) { return acasx.LoadTable(path) }

// NewSystem constructs a collision avoidance system from the central
// backend registry: spec.Name selects the backend ("acasx", "belief",
// "svo", "mpc", "apf", "none", or anything added with RegisterSystem),
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

// RegisterSystem adds a backend to the registry, making its name available
// to NewSystem, the campaign system axis and the CLI -system flags.
func RegisterSystem(b SystemBackend) error { return sys.Register(b) }

// SystemNames lists the registered backend names in sorted order.
func SystemNames() []string { return sys.Names() }

// LookupSystem returns the named backend's registration (documentation,
// parameter docs, table requirement).
func LookupSystem(name string) (SystemBackend, bool) { return sys.Lookup(name) }

// AdaptSystem lifts a pairwise System onto the engine's multi-intruder
// AvoidanceSystem contract (systems already implementing it pass through).
func AdaptSystem(s System) AvoidanceSystem { return sim.Adapt(s) }

// NoAvoidance returns the unequipped baseline system: it never commands.
// It is stateless, so one value can equip any number of aircraft.
func NoAvoidance() System { return sim.NoSystem{} }

// Unequipped is the SystemFactory for aircraft with no collision
// avoidance.
var Unequipped = montecarlo.Unequipped

// DefaultRunConfig returns the paper-style simulation configuration.
func DefaultRunConfig() RunConfig { return sim.DefaultRunConfig() }

// FaultPreset looks up a named surveillance degradation profile
// (FaultPresetNames lists the valid names; "none" is the clean channel).
func FaultPreset(name string) (FaultProfile, error) { return fault.Preset(name) }

// FaultPresetNames lists the degradation presets in a stable order.
func FaultPresetNames() []string { return fault.PresetNames() }

// RunEncounter simulates one encounter (deterministic under seed).
// Callers running many episodes should hold an EncounterRunner and call
// its Run method instead: it reuses the whole simulation world, while
// RunEncounter rebuilds one per call.
func RunEncounter(p EncounterParams, own, intruder System, cfg RunConfig, seed uint64) (RunResult, error) {
	return sim.RunEncounter(p, own, intruder, cfg, seed)
}

// EncounterRunner is a reusable simulation world: fleet, trackers,
// monitors and RNG streams persist across episodes, so steady-state
// episode throughput is allocation-free. Results are bit-identical to
// RunEncounter/RunMultiEncounter under the same seeds. Not safe for
// concurrent use; each goroutine owns one.
type EncounterRunner = sim.Runner

// NewEncounterRunner builds a reusable simulation world for cfg.
func NewEncounterRunner(cfg RunConfig) (*EncounterRunner, error) { return sim.NewRunner(cfg) }

// RunMultiEncounter simulates one encounter between the ownship and the
// scenario's K intruders: systems[0] equips the ownship, systems[j]
// intruder j (use Unequipped's systems for unequipped aircraft). The
// ownship resolves all K threats per decision cycle, fusing per-intruder
// logic queries most-restrictive-first when its system supports it. A
// single-intruder call is bit-identical to RunEncounter.
func RunMultiEncounter(m MultiEncounterParams, systems []System, cfg RunConfig, seed uint64) (RunResult, error) {
	return sim.RunMultiEncounter(m, systems, cfg, seed)
}

// DefaultEncounterRanges returns the section VII search space.
func DefaultEncounterRanges() EncounterRanges { return encounter.DefaultRanges() }

// Preset encounters from the paper's figures.
var (
	// PresetHeadOn is the Fig. 5 head-on geometry.
	PresetHeadOn = encounter.PresetHeadOn
	// PresetTailApproach is the Figs. 7-8 tail-approach geometry.
	PresetTailApproach = encounter.PresetTailApproach
	// PresetCrossing is a perpendicular crossing conflict.
	PresetCrossing = encounter.PresetCrossing
	// PresetVerticalConvergence is a vertically-created conflict.
	PresetVerticalConvergence = encounter.PresetVerticalConvergence
	// PresetOvertake is a parallel-track overtake from astern.
	PresetOvertake = encounter.PresetOvertake
	// PresetClimbingCrossing is a crossing intruder climbing through the
	// own-ship's altitude.
	PresetClimbingCrossing = encounter.PresetClimbingCrossing
	// PresetOffsetHeadOn is a head-on geometry offset in both axes.
	PresetOffsetHeadOn = encounter.PresetOffsetHeadOn
)

// EncounterPreset looks up a named encounter preset; EncounterPresetNames
// lists the valid names.
func EncounterPreset(name string) (EncounterParams, error) { return encounter.Preset(name) }

// EncounterPresetNames lists the available encounter presets.
func EncounterPresetNames() []string { return encounter.PresetNames() }

// Multi-intruder preset encounters: the canonical K >= 2 geometries
// integrated-airspace traffic produces and pairwise validation never
// exercises.
var (
	// MultiPresetConvergingPair is a simultaneous two-sided convergence.
	MultiPresetConvergingPair = encounter.MultiPresetConvergingPair
	// MultiPresetCrossingStream is three crossers with staggered CPAs.
	MultiPresetCrossingStream = encounter.MultiPresetCrossingStream
	// MultiPresetSandwich is a vertical pincer from above and below.
	MultiPresetSandwich = encounter.MultiPresetSandwich
)

// MultiEncounterPreset looks up a named preset as a K-intruder encounter:
// the multi-intruder names (MultiEncounterPresetNames) plus every pairwise
// preset wrapped as a single-intruder encounter.
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
// the given method (see RareEventMethods).
func DefaultRareEventSpec(method string) RareEventSpec {
	return montecarlo.DefaultRareEventSpec(method)
}

// RareEventMethods lists the rare-event estimator method names.
func RareEventMethods() []string { return montecarlo.Methods() }

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

// LoadCampaignSpec reads a campaign declaration from an ECJ-style parameter
// file (see campaign.FromConfig for the recognized keys).
func LoadCampaignSpec(path string) (CampaignSpec, error) { return campaign.Load(path) }

// DefaultCampaignSystems returns every registered backend under its
// default configuration for campaign runs: "none", "svo", "mpc" and "apf"
// always, plus "acasx" and "belief" when table is non-nil (and any backend
// added with RegisterSystem).
func DefaultCampaignSystems(table *Table) CampaignSystems { return campaign.DefaultSystems(table) }

// DefaultSearchSpec returns the paper-scale island search: 4 islands of 50
// individuals (the paper's total population of 200) for 5 generations.
func DefaultSearchSpec() SearchSpec { return search.DefaultSpec() }

// LoadSearchSpec reads an island-search declaration from an ECJ-style
// parameter file (see search.FromConfig for the recognized keys).
func LoadSearchSpec(path string) (SearchSpec, error) { return search.Load(path) }

// RandomSearch is the uniform random baseline of the search: n genomes
// drawn from spec's full genome bounds on a stream salted from spec.Seed,
// each scored through the same fitness path as RunSearchContext.
func RandomSearch(ctx context.Context, spec SearchSpec, factory SystemFactory, n int) (*RandomSearchResult, error) {
	return search.RandomSearch(ctx, spec, factory, n)
}

// LoadDangerArchive reads a danger-archive JSONL file written by a search.
func LoadDangerArchive(path string) ([]DangerArchiveEntry, error) {
	return search.LoadArchiveFile(path)
}

// ArchiveCampaignScenarios converts danger-archive entries into explicit
// campaign scenarios, closing the sweep -> search -> archive -> sweep loop.
func ArchiveCampaignScenarios(entries []DangerArchiveEntry) ([]CampaignScenario, error) {
	return search.CampaignScenarios(entries)
}

// SweepSeedGenomes extracts worst-first seed genomes from a campaign
// sweep's JSONL output file, for SearchSpec.SeedGenomes.
func SweepSeedGenomes(path string, limit int) ([][]float64, error) {
	return search.SweepSeedsFile(path, limit)
}

// DefaultGrid2DConfig returns the paper's section III parameterization.
func DefaultGrid2DConfig() Grid2DConfig { return grid2d.DefaultConfig() }

// NewGrid2D builds the section III model.
func NewGrid2D(cfg Grid2DConfig) (*Grid2DModel, error) { return grid2d.New(cfg) }

// SolveGrid2D generates the section III logic table by value iteration.
func SolveGrid2D(m *Grid2DModel) (*Grid2DTable, error) { return grid2d.Solve(m) }
