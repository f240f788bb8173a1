package serve

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"

	"acasxval/internal/campaign"
	"acasxval/internal/config"
	"acasxval/internal/search"
)

// Job kinds.
const (
	KindCampaign = "campaign"
	KindSearch   = "search"
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
	// for search jobs.
	Cells     int `json:"cells,omitempty"`
	Completed int `json:"completed,omitempty"`
	Poisoned  int `json:"poisoned,omitempty"`
	CacheHits int `json:"cache_hits,omitempty"`
}

// job is the server's in-memory state for one submitted job.
type job struct {
	id   string
	spec JobSpec

	// The parsed spec of the job's kind. A campaign job also keeps its
	// deterministic cell expansion and the per-cell identity hashes
	// keying the completed-cell cache.
	cspec  campaign.Spec
	sspec  search.Spec
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
		if err := systems.Check(j.cspec.Systems); err != nil {
			return nil, err
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
		if j.sspec, err = search.FromConfig(c); err != nil {
			return nil, err
		}
		if err := systems.Check([]string{j.sspec.System}); err != nil {
			return nil, err
		}
		j.spec.Name = j.sspec.Name
	case "rare":
		// The retired rare job kind: its journaled jobs replay as failed.
		return nil, fmt.Errorf("serve: job kind %q is retired: submit a %s job with campaign.estimator.methods", kind, KindCampaign)
	default:
		return nil, fmt.Errorf("serve: unknown job kind %q (want %s or %s)", kind, KindCampaign, KindSearch)
	}
	return j, nil
}

// parseParams parses a job's params text. A new submission is strict:
// each job kind's parser rejects the keys under its prefixes that it did
// not read. A job the server already accepted, replayed from the journal,
// counts every key as read, so a grammar that later grew stricter never
// fails it.
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
