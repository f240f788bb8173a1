// Package acasxval is a Go reproduction of "On the Validation of a UAV
// Collision Avoidance System Developed by Model-Based Optimization:
// Challenges and a Tentative Partial Solution" (Zou, Alexander, McDermid —
// DSN 2016).
//
// The library contains both halves of the paper:
//
//   - The systems under test: an ACAS XU-style airborne collision
//     avoidance system whose logic table is generated automatically by
//     solving a Markov Decision Process with dynamic programming
//     (BuildLogicTable), plus the section III pedagogical 2-D grid example
//     (SolveGrid2D). Alongside it, a menu of structurally different
//     methods for the validation machinery to compare: a QMDP
//     belief-weighted executive, a Selective Velocity Obstacle baseline, a
//     receding-horizon candidate-trajectory MPC and an artificial
//     potential field. Every backend is constructed by name through one
//     registry — NewSystem(ctx, SystemSpec{Name: "mpc", Params: ...}) —
//     SystemNames enumerates the menu, LookupSystem documents each
//     backend's parameters, and RegisterSystem extends the menu so
//     campaigns and CLIs pick up new methods without modification. All
//     backends speak the engine's multi-intruder AvoidanceSystem contract
//     (DecideTracks over every surveilled threat per cycle); AdaptSystem
//     lifts classic pairwise systems onto it bit-identically.
//
//   - The paper's contribution: a Genetic-Algorithm-based search for
//     challenging encounter situations where the generated logic performs
//     poorly (RunSearchContext at one island is the paper's single
//     population), with a uniform random search baseline scored through
//     the same fitness path (RandomSearch) and a Monte-Carlo risk
//     estimation harness (EstimateRiskContext) for the validation path the
//     GA approach complements.
//
// Each engine has one entry point, and each takes a context first: pass
// context.Background() to run to completion, or a cancellable context to
// stop at the next episode, cell or evaluation boundary. A pairwise
// encounter is the one-intruder case of the multi-intruder one, so
// EstimateMultiRareRiskContext is the general risk estimate (K >= 1, any
// estimator method, the zero RareEventSpec meaning brute force) and
// EstimateRiskContext is its pairwise brute-force shorthand.
//
// On top of both sits the campaign sweep engine, the batch validation
// answer to the paper's insistence that single-scenario checks are not
// enough: a CampaignSpec declares a scenario x system x configuration
// cross-product (named encounter presets, explicit scenarios and/or
// statistical-model draws; any registered system backend;
// run-config and sample-count variants), RunCampaignContext fans it out
// over a deterministic seed-derived worker pool, streams one JSONL record per
// cell, and ranks systems by risk ratio against the unequipped baseline.
// Specs load from ECJ-style parameter files (LoadCampaignSpec), so
// campaigns are checked-in, versioned artifacts; cmd/sweep is the
// command-line driver.
//
// Sweeps and searches close into a loop. The island-model adversarial
// search engine (RunSearchContext, SearchSpec, LoadSearchSpec) evolves N
// concurrent island populations with ring migration, scoring every genome
// through the same Monte-Carlo harness the campaigns use; its initial
// populations can seed from a prior sweep's worst cells (SweepSeedGenomes),
// its state checkpoints after every generation so a killed run resumes
// byte-identically (SearchOptions), and every encounter crossing the risk
// threshold lands in a deduplicated danger archive whose JSONL reloads as
// explicit campaign scenarios (LoadDangerArchive, ArchiveCampaignScenarios)
// — sweep -> search -> archive -> sweep. The observer's IslandStats carry
// each generation's fresh evaluations, the log behind Fig. 6. cmd/casearch
// drives the engine (one island by default, -islands N for more);
// examples/adversarial walks the loop end to end.
//
// Encounters are not limited to the paper's pairwise geometry: every
// layer accepts one-ownship, K-intruder scenarios (MultiEncounterParams —
// K pairwise parameter blocks sharing the ownship state, so the genome is
// K*9 genes and K = 1 is bit-identical to the classic path).
// RunMultiEncounter simulates all K conflicts in one closed-loop world,
// equipped executives query the logic table per intruder and fuse
// advisories most-restrictive-first, and monitors score the minimum over
// every ownship-intruder pair. Three multi-intruder presets ship
// (MultiPresetConvergingPair, MultiPresetCrossingStream,
// MultiPresetSandwich; MultiEncounterPreset resolves them and every
// pairwise preset by name), EstimateMultiRareRiskContext evaluates a
// K-intruder statistical airspace (DefaultMultiEncounterModel), campaign specs mix
// pairwise and multi presets on one scenario axis (campaign.intruders
// widens model draws), and the island search evolves K-block genomes
// (search.intruders). examples/multithreat walks the stack end to end.
//
// Validation also runs under degraded surveillance. A FaultProfile
// (FaultPreset resolves the named severity ladder) composes four
// deterministic degradations onto the sensor path — Gilbert-Elliott burst
// dropout, a hard detection-range limit, per-aircraft measurement latency
// through a fixed delay queue, and a scheduled coordination-loss window —
// activated by setting RunConfig.Faults (the zero profile is the clean
// channel and changes nothing). Fault randomness draws from dedicated
// per-episode, per-aircraft streams seeded counter-style exactly like the
// dynamics and sensor streams, only salted with a fault-layer constant:
// stream identity is (seed, episode index, aircraft, salt), never "which
// worker ran the episode" and never shared with the clean-path streams,
// so enabling faults perturbs neither the encounter draws nor the sensor
// noise sequence, and estimates stay bit-identical for any worker count.
// Campaign specs cross a fault axis with every scenario, system and
// variant (CampaignFaultPoint, campaign.faults.* keys) while replaying
// each fault point against its clean sibling's episode seeds — paired
// severity comparisons, not resampled ones. The island search either
// fixes a profile on every evaluation (search.faults.preset) or
// co-evolves the seven fault genes with the encounter geometry
// (SearchSpec.EvolveFaults, with SearchSpec.FaultPenalty subtracting
// penalty x severity so mild degradations that still defeat avoidance
// outrank blackouts); examples/degraded walks the degraded-mode loop.
//
// Where brute-force Monte Carlo runs out — certifying probabilities far
// smaller than 1/samples — a rare-event estimator family takes over
// behind one switch (EstimateMultiRareRiskContext, RareEventSpec,
// RareEventMethods):
// importance sampling from a defensive mixture whose kernels center on
// danger-archive genomes (ArchiveProposalKernels turns the adversarial
// search's failure region into the proposal; "is" is unbiased, "snis"
// self-normalized), and multi-level splitting ("split") — subset
// simulation down a decreasing minimum-separation ladder with Metropolis
// chains in raw parameter space. Likelihood ratios are computed on the
// raw parameter draws; dimensions where the archive scatters stay
// untilted and cancel exactly from the ratio. Every estimate carries its
// effective sample size and measured variance-reduction factor
// (RiskEstimate.ESS, .VarianceReduction), zero-success runs still report
// a sound Clopper-Pearson-based upper bound, and the campaign engine
// crosses an estimator axis (campaign.estimator.methods, cmd/sweep
// -estimator, cmd/mceval -estimator) over every system, variant and
// fault point. examples/rareevent cross-validates the family against
// brute force on hostile wide-prior airspace.
//
// Everything above bottoms out in one parallel, allocation-free episode
// engine. Every episode's random streams derive counter-style from
// (seed, episode index), so Monte-Carlo estimates are bit-identical for
// any worker count: MonteCarloConfig.Parallelism bounds the episode
// workers of one estimate (0 = NumCPU), SearchOptions.EpisodeWorkers fans
// each fitness batch of the island search out over idle cores, and
// RunCampaignContext spills leftover pool capacity into per-cell episode
// parallelism when the cell grid is smaller than the hardware — all three
// knobs trade wall-clock only, never results. Each worker reuses one
// fully-wired simulation world across its episodes, so the steady state
// allocates nothing per episode (CI gates on the shipped
// BenchmarkEvaluateSteadyState staying at 0 allocs/op).
//
// Quick start:
//
//	table, _ := acasxval.BuildLogicTable(acasxval.DefaultTableConfig())
//	factory, _ := acasxval.NewSystemFactory(
//	    acasxval.SystemContext{Table: table}, acasxval.SystemSpec{Name: "acasx"})
//	own, intruder := factory()
//	res, _ := acasxval.RunEncounter(acasxval.PresetHeadOn(), own, intruder,
//	    acasxval.DefaultRunConfig(), 42)
//	fmt.Println(res.NMAC, res.MinSeparation)
//	est, _ := acasxval.EstimateRiskContext(context.Background(),
//	    acasxval.DefaultEncounterModel(), factory, acasxval.DefaultMonteCarloConfig())
//	fmt.Println(est.PNMAC, est.PNMACCI)
//
// See the examples directory for runnable programs and EXPERIMENTS.md for
// the paper-versus-measured record of every reproduced figure and table.
package acasxval
