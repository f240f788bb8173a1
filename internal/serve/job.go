package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"

	"acasxval/internal/campaign"
	"acasxval/internal/config"
	"acasxval/internal/montecarlo"
	"acasxval/internal/search"
)

// Job kinds.
const (
	KindCampaign = "campaign"
	KindSearch   = "search"
	KindRare     = "rare"
)

// JobStatus is the wire representation of a job's state.
type JobStatus struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Name     string `json:"name"`
	SpecHash string `json:"spec_hash,omitempty"`
	Status   string `json:"status"`
	Error    string `json:"error,omitempty"`
	// Cells/Completed/Poisoned/CacheHits track campaign progress; zero
	// for search and rare jobs.
	Cells     int `json:"cells,omitempty"`
	Completed int `json:"completed,omitempty"`
	Poisoned  int `json:"poisoned,omitempty"`
	CacheHits int `json:"cache_hits,omitempty"`
}

// job is the server's in-memory state for one submitted job.
type job struct {
	id   string
	spec JobSpec

	// Campaign jobs: the parsed spec, its deterministic cell expansion
	// and the per-cell identity hashes keying the completed-cell cache.
	// Search and rare jobs re-parse spec.Params when they run.
	cspec  campaign.Spec
	cells  []campaign.Cell
	hashes []string

	mu        sync.Mutex
	status    string
	errMsg    string
	results   []campaign.CellResult // by expansion position
	have      []bool
	poison    []bool
	completed int
	poisoned  int
	cacheHits int
	payload   json.RawMessage // search/rare terminal result
	summary   string
	update    chan struct{} // closed and replaced on every state change
	cancel    context.CancelFunc
}

// newJob parses and validates a submission. Campaign specs are expanded
// and hashed eagerly so a malformed job is rejected at submit time, not
// discovered mid-queue.
func newJob(id, kind, params string, systems campaign.SystemSet, strict bool) (*job, error) {
	j := &job{
		id:     id,
		spec:   JobSpec{Kind: kind, Params: params},
		status: StatusQueued,
		update: make(chan struct{}),
	}
	c, err := parseParams(params, strict)
	if err != nil {
		return nil, err
	}
	switch kind {
	case KindCampaign:
		if j.cspec, err = campaign.FromConfig(c); err != nil {
			return nil, err
		}
		for _, name := range j.cspec.Systems {
			if _, ok := systems[name]; !ok {
				return nil, fmt.Errorf("serve: system %q not available (have %v)", name, systems.Names())
			}
		}
		if j.cells, err = j.cspec.Cells(); err != nil {
			return nil, err
		}
		if j.spec.SpecHash, err = SpecHash(j.cspec); err != nil {
			return nil, err
		}
		j.hashes = make([]string, len(j.cells))
		for i, cell := range j.cells {
			if j.hashes[i], err = CellHash(j.cspec, cell); err != nil {
				return nil, err
			}
		}
		j.spec.Name = j.cspec.Name
		j.results = make([]campaign.CellResult, len(j.cells))
		j.have = make([]bool, len(j.cells))
		j.poison = make([]bool, len(j.cells))
	case KindSearch:
		// search.system is the service's own key under search.*: read it
		// before the parser rejects what it did not read.
		name := c.StringOr("search.system", "none")
		spec, err := search.FromConfig(c)
		if err != nil {
			return nil, err
		}
		if _, ok := systems[name]; !ok {
			return nil, fmt.Errorf("serve: system %q not available (have %v)", name, systems.Names())
		}
		j.spec.Name = spec.Name
	case KindRare:
		j.spec.Name = c.StringOr("rare.name", "rare")
		if _, _, _, err := rareFromConfig(c, systems); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("serve: unknown job kind %q (want %s, %s or %s)", kind, KindCampaign, KindSearch, KindRare)
	}
	return j, nil
}

// parseParams parses a job's params text. A new submission is strict:
// each job kind's parser rejects the keys under its prefixes that it did
// not read. A job the server already accepted — replayed from the journal
// or re-parsed to run — counts every key as read, so a grammar that later
// grew stricter never fails it.
func parseParams(params string, strict bool) (*config.Params, error) {
	c, err := config.Parse(params)
	if err != nil || strict {
		return c, err
	}
	for _, key := range c.Keys() {
		c.Has(key)
	}
	return c, nil
}

// rareFromConfig parses a rare-event job: montecarlo.RareFromConfig under
// the "rare." prefix plus the service's own key rare.system (default
// "none"). Callers read rare.name first.
func rareFromConfig(c *config.Params, systems campaign.SystemSet) (montecarlo.RareEventSpec, montecarlo.Config, montecarlo.SystemFactory, error) {
	name := c.StringOr("rare.system", "none")
	spec, cfg, err := montecarlo.RareFromConfig(c, "rare.")
	if err != nil {
		return spec, cfg, nil, err
	}
	cfg.Parallelism = 1
	factory, ok := systems[name]
	if !ok {
		return spec, cfg, nil, fmt.Errorf("serve: system %q not available (have %v)", name, systems.Names())
	}
	return spec, cfg, factory, nil
}

// cellKey is cell i's completed-cell cache key: its identity hash plus
// its derived Monte-Carlo seed.
func (j *job) cellKey(i int) CellKey {
	return CellKey{j.hashes[i], campaign.CellSeed(j.cspec.Seed, j.cells[i])}
}

// cachedResult adapts a cached record to this job: the computation is
// identical, only the expansion position may differ across overlapping
// campaigns, so the index is rewritten.
func (j *job) cachedResult(i int, rec CellRecord) campaign.CellResult {
	res := rec.Result
	res.Index = j.cells[i].Index
	return res
}

// Status snapshots the job for the wire.
func (j *job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:        j.id,
		Kind:      j.spec.Kind,
		Name:      j.spec.Name,
		SpecHash:  j.spec.SpecHash,
		Status:    j.status,
		Error:     j.errMsg,
		Cells:     len(j.cells),
		Completed: j.completed,
		Poisoned:  j.poisoned,
		CacheHits: j.cacheHits,
	}
}

// terminal reports whether status is a terminal state.
func terminal(status string) bool {
	return status == StatusDone || status == StatusDegraded || status == StatusFailed
}

// publish wakes every watcher of the job's state. Callers hold j.mu.
func (j *job) publish() {
	close(j.update)
	j.update = make(chan struct{})
}

// setStatus transitions the job and wakes watchers.
func (j *job) setStatus(status, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = status
	j.errMsg = errMsg
	j.publish()
}

// storeCell records a completed cell at expansion position i.
func (j *job) storeCell(i int, res campaign.CellResult, fromCache bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.have[i] {
		return
	}
	j.results[i] = res
	j.have[i] = true
	j.completed++
	if fromCache {
		j.cacheHits++
	}
	j.publish()
}

// storePoison quarantines expansion position i.
func (j *job) storePoison(i int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.poison[i] {
		return
	}
	j.poison[i] = true
	j.poisoned++
	j.publish()
}

// completedCells returns the completed cell records in expansion order
// (poisoned holes skipped), exactly the stream the artifacts persist.
func (j *job) completedCells() []campaign.CellResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]campaign.CellResult, 0, j.completed)
	for i, ok := range j.have {
		if ok {
			out = append(out, j.results[i])
		}
	}
	return out
}

// artifactBase is the state-dir filename stem of the job's artifacts.
func (j *job) artifactBase(dir string) string {
	return filepath.Join(dir, j.id)
}
