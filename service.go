package acasxval

import (
	"context"
	"io"

	"acasxval/internal/campaign"
	"acasxval/internal/montecarlo"
	"acasxval/internal/search"
	"acasxval/internal/serve"
)

// The long-running entry points: one per engine. Each takes a context
// first; pass context.Background() to run to completion, or a real
// context to stop work promptly on cancellation, deadline, or signal
// (signal.NotifyContext) instead of killing the process mid-write.

// RunCampaignContext executes a validation campaign: the scenario x system
// x variant cross-product fans out over a deterministic worker pool (when
// the grid is smaller than the pool, the leftover cores run each cell's
// episodes in parallel instead of idling), each cell streams one JSON
// record to jsonl (may be nil), and the result ranks systems by risk ratio
// against the unequipped baseline. Output is byte-identical across runs
// with the same spec, regardless of how the work was scheduled. A
// cancelled ctx stops the campaign at the next cell boundary: the JSONL
// stream holds exactly the completed deterministic cell prefix, and the
// returned partial result (non-nil alongside the error) summarizes those
// cells.
func RunCampaignContext(ctx context.Context, spec CampaignSpec, systems CampaignSystems, jsonl io.Writer) (*CampaignResult, error) {
	return campaign.RunContext(ctx, spec, systems, jsonl)
}

// RunSearchContext executes the island-model adversarial search: N islands
// evolve concurrently with ring migration (one island is the paper's single
// population GA), every evaluation runs through the Monte-Carlo harness
// (fanning its episodes over opts.EpisodeWorkers workers without affecting
// a single result byte), and dangerous encounters accumulate in the
// result's deduplicated archive. With opts.CheckpointPath set the state
// checkpoints after every generation, so a killed or cancelled run resumes
// bit-identically (opts.Resume). A cancelled ctx stops the islands at the
// next evaluation boundary and returns the progress so far (non-nil
// alongside the error).
func RunSearchContext(ctx context.Context, spec SearchSpec, factory SystemFactory, opts SearchOptions) (*IslandSearchResult, error) {
	return search.RunContext(ctx, spec, factory, opts)
}

// EstimateRiskContext runs a brute-force Monte-Carlo risk estimation of one
// system configuration against a pairwise encounter model: the one-intruder
// case of EstimateMultiRareRiskContext under the zero RareEventSpec.
// Episodes fan out over cfg.Parallelism reusable simulation worlds (0 =
// NumCPU); every episode's random streams derive counter-style from
// (cfg.Seed, episode index), so the estimate is bit-identical for any
// worker count. A cancelled ctx stops the episode loop and returns
// ctx.Err() with no estimate.
func EstimateRiskContext(ctx context.Context, model EncounterModel, factory SystemFactory, cfg MonteCarloConfig) (*RiskEstimate, error) {
	return montecarlo.EvaluateMultiWithScratchContext(ctx,
		MultiEncounterModel{Intruders: []EncounterModel{model}}, factory, cfg, nil)
}

// EstimateMultiRareRiskContext is the general risk estimate: P(NMAC) of one
// system configuration against a K-intruder encounter model (K >= 1; wrap a
// pairwise model as MultiEncounterModel{Intruders: []EncounterModel{m}})
// with the estimator the spec selects. The zero spec (or "bruteforce") is
// brute-force Monte-Carlo; "is" and "snis" importance-sample a defensive
// mixture of the model and the spec's kernels; "split" runs multi-level
// splitting down a decreasing separation-level ladder. Estimates report the
// effective sample size and the variance-reduction factor against a
// brute-force run of the same episode budget, and are bit-identical for any
// worker count. A cancelled ctx stops the episode loops (and, for
// splitting, the stage ladder) and returns ctx.Err() with no estimate.
func EstimateMultiRareRiskContext(ctx context.Context, model MultiEncounterModel, factory SystemFactory, cfg MonteCarloConfig, spec RareEventSpec) (*RiskEstimate, error) {
	return montecarlo.EstimateRareMultiWithScratchContext(ctx, model, factory, cfg, spec, nil)
}

// The validation service: a long-running, crash-safe server around the
// campaign, search and rare-event engines (see internal/serve and the
// caserve command). Campaign cells shard across a supervised worker pool
// with per-cell deadlines, bounded retries and quarantine; every
// completed cell journals durably before it becomes observable, so
// restarting a killed server on the same state directory resumes
// mid-campaign with byte-identical artifacts.
type (
	// ValidationServer accepts campaign, adversarial-search and
	// rare-event jobs — over HTTP (it is an http.Handler) or in-process
	// (Submit/WaitJob) — and survives being killed at any instant.
	ValidationServer = serve.Server
	// ValidationServerConfig configures a ValidationServer: the state
	// directory, the system backend menu, the worker-pool width and the
	// shard retry policy.
	ValidationServerConfig = serve.Config
	// ValidationJobStatus is one job's observable state: queued, running,
	// done, degraded (some cells quarantined), failed or cancelled, plus
	// progress counters and cache-hit counts.
	ValidationJobStatus = serve.JobStatus
	// ValidationRetryPolicy bounds per-cell attempts, deadlines and
	// retry backoff for a ValidationServer's shard supervisor.
	ValidationRetryPolicy = serve.RetryPolicy
)

// NewValidationServer opens (or resumes) a validation server over
// cfg.StateDir: the durable job journal replays, completed cells become
// the completed-cell cache, and every job a previous process left
// unfinished re-enters the queue — restarting the server IS the recovery
// path. Close drains it gracefully.
func NewValidationServer(cfg ValidationServerConfig) (*ValidationServer, error) {
	return serve.NewServer(cfg)
}

// CampaignSpecHash returns the canonical content hash of a campaign
// spec: two specs that expand to the same cells hash identically no
// matter how they were spelled (map order, defaulted fields, parallelism
// knobs). The validation service keys job identity on it.
func CampaignSpecHash(spec CampaignSpec) (string, error) {
	return serve.SpecHash(spec)
}
