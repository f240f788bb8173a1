package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"

	"acasxval/internal/campaign"
	"acasxval/internal/config"
	"acasxval/internal/durable"
	"acasxval/internal/montecarlo"
	"acasxval/internal/search"
)

// Config configures a validation server.
type Config struct {
	// StateDir holds the journal and per-job artifacts. Required.
	StateDir string
	// Systems is the backend menu (default campaign.DefaultSystems(nil):
	// every registered backend that needs no logic table).
	Systems campaign.SystemSet
	// Workers bounds concurrent campaign cells (0 = NumCPU).
	Workers int
	// Policy is the shard retry policy (zero value = defaults).
	Policy RetryPolicy
	// Clock defaults to the real clock; tests inject a fake.
	Clock Clock
	// Disrupt is the supervisor fault-injection hook (tests only).
	Disrupt func(shard, attempt int) error
}

// Server is the crash-safe validation service: an HTTP front end over a
// journaled job queue and the shard supervisor. Jobs execute one at a
// time in submission order (each job saturates the worker pool itself);
// every completed campaign cell is journaled before it becomes
// observable, so a killed server resumes exactly where it stopped.
type Server struct {
	cfg     Config
	systems campaign.SystemSet
	journal *Journal
	mux     *http.ServeMux

	mu            sync.Mutex
	cond          *sync.Cond
	jobs          []*job
	byID          map[string]*job
	cells         map[CellKey]CellRecord
	poisonedCells map[CellKey]PoisonRecord
	closing       bool

	drain      chan struct{}
	runnerDone chan struct{}
	closeOnce  sync.Once
	closeErr   error
}

// NewServer opens (or resumes) a validation server over cfg.StateDir:
// the journal is replayed, completed cells become the cell cache, and
// every job the previous process left non-terminal is re-enqueued — the
// restart IS the recovery path, there is no separate repair tool.
func NewServer(cfg Config) (*Server, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("serve: empty state dir")
	}
	if cfg.Systems == nil {
		cfg.Systems = campaign.DefaultSystems(nil)
	}
	rep, err := ReplayJournal(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	if rep.Truncated {
		fmt.Fprintf(os.Stderr, "serve: journal ends in a half-written record (killed mid-append?); dropped\n")
	}
	journal, err := OpenJournal(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:           cfg,
		systems:       cfg.Systems,
		journal:       journal,
		byID:          make(map[string]*job),
		cells:         rep.Cells,
		poisonedCells: rep.Poisoned,
		drain:         make(chan struct{}),
		runnerDone:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	for _, rj := range rep.Jobs {
		j, jerr := newJob(rj.ID, rj.Spec.Kind, rj.Spec.Params, s.systems)
		if jerr != nil {
			// The spec no longer parses (backend menu changed, say): the
			// job cannot resume. Fail it durably rather than wedging the
			// queue.
			j = &job{id: rj.ID, spec: rj.Spec, status: StatusFailed, errMsg: jerr.Error(), update: make(chan struct{})}
			if !terminal(rj.Status) {
				if err := journal.Append(Record{Type: "status", Job: j.id, Status: StatusFailed, Error: j.errMsg}); err != nil {
					journal.Close()
					return nil, err
				}
			}
		} else if terminal(rj.Status) {
			j.status = rj.Status
			j.errMsg = rj.Error
			if rj.Spec.Kind == KindCampaign && rj.Status != StatusFailed {
				s.hydrate(j)
			}
		}
		// Anything non-terminal replays as queued; the runner re-executes
		// it and the completed-cell cache turns re-execution into resume.
		s.jobs = append(s.jobs, j)
		s.byID[j.id] = j
	}
	s.mux = http.NewServeMux()
	s.routes()
	go s.runLoop()
	return s, nil
}

// hydrate fills a terminal campaign job's in-memory results from the
// replayed cell cache so the stream and status endpoints serve it without
// re-running anything.
func (s *Server) hydrate(j *job) {
	for i := range j.cells {
		key := j.cellKey(i)
		if rec, ok := s.cells[key]; ok {
			j.storeCell(i, j.cachedResult(i, rec), false)
		} else if _, bad := s.poisonedCells[key]; bad {
			j.storePoison(i)
		}
	}
}

// Submit enqueues a job programmatically (the HTTP POST /jobs handler is
// a thin wrapper). The job record is journaled before Submit returns:
// an acknowledged job survives a crash.
func (s *Server) Submit(kind, params string) (JobStatus, error) {
	j, err := newJob("", kind, params, s.systems)
	if err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return JobStatus{}, fmt.Errorf("serve: server is shutting down")
	}
	j.id = fmt.Sprintf("job-%04d", len(s.jobs)+1)
	if err := s.journal.Append(Record{Type: "job", Job: j.id, Spec: &j.spec}); err != nil {
		return JobStatus{}, err
	}
	s.jobs = append(s.jobs, j)
	s.byID[j.id] = j
	s.cond.Signal()
	return j.Status(), nil
}

// Job returns a job's status by id.
func (s *Server) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.byID[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.Status(), true
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	jobs := append([]*job(nil), s.jobs...)
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// WaitJob blocks until the job reaches a terminal status (or ctx ends)
// and returns its final status.
func (s *Server) WaitJob(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.byID[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("serve: unknown job %q", id)
	}
	for {
		j.mu.Lock()
		status := j.status
		update := j.update
		j.mu.Unlock()
		if terminal(status) {
			return j.Status(), nil
		}
		select {
		case <-ctx.Done():
			return j.Status(), ctx.Err()
		case <-update:
		}
	}
}

// Cancel cancels a queued or running job.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.byID[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("serve: unknown job %q", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case terminal(j.status):
		return fmt.Errorf("serve: job %q already %s", id, j.status)
	case j.cancel != nil:
		j.cancel()
		return nil
	default:
		// Still queued. Journal before publishing, under j.mu so runJob
		// cannot start the job in between: no watcher sees a cancellation
		// that is not on disk, and a failed append leaves the job queued.
		if err := s.journal.Append(Record{Type: "status", Job: id, Status: StatusFailed, Error: "cancelled"}); err != nil {
			return err
		}
		j.status = StatusFailed
		j.errMsg = "cancelled"
		j.publish()
		return nil
	}
}

// Close gracefully shuts the server down: stop scheduling new shards,
// let in-flight campaign cells finish and be journaled, interrupt
// long-running search/rare jobs at their next evaluation boundary (their
// checkpoints make that loss-free), then close the journal. Jobs left
// non-terminal resume when the next server opens the same state dir.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.drain)
		s.mu.Lock()
		s.closing = true
		for _, j := range s.jobs {
			j.mu.Lock()
			if j.cancel != nil && j.spec.Kind != KindCampaign {
				j.cancel()
			}
			j.mu.Unlock()
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		<-s.runnerDone
		s.closeErr = s.journal.Close()
	})
	return s.closeErr
}

// runLoop executes queued jobs one at a time in submission order.
func (s *Server) runLoop() {
	defer close(s.runnerDone)
	for {
		s.mu.Lock()
		var next *job
		for !s.closing {
			for _, j := range s.jobs {
				if st := j.Status(); st.Status == StatusQueued {
					next = j
					break
				}
			}
			if next != nil {
				break
			}
			s.cond.Wait()
		}
		s.mu.Unlock()
		if next == nil {
			return
		}
		s.runJob(next)
	}
}

// runJob drives one job from queued to terminal (or leaves it queued when
// shutdown interrupted it).
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.mu.Lock()
	if j.status != StatusQueued {
		// Cancelled while waiting in the queue.
		j.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.cancel = cancel
	j.publish()
	j.mu.Unlock()
	if err := s.journal.Append(Record{Type: "status", Job: j.id, Status: StatusRunning}); err != nil {
		j.setStatus(StatusFailed, err.Error())
		return
	}

	var status, errMsg string
	switch j.spec.Kind {
	case KindCampaign:
		status, errMsg = s.runCampaign(ctx, j)
	case KindSearch:
		status, errMsg = s.runSearch(ctx, j)
	case KindRare:
		status, errMsg = s.runRare(ctx, j)
	default:
		status, errMsg = StatusFailed, fmt.Sprintf("unknown kind %q", j.spec.Kind)
	}
	j.mu.Lock()
	j.cancel = nil
	j.mu.Unlock()
	if status == "" {
		// Shutdown mid-job: leave it non-terminal so the next server
		// resumes it from the journal.
		j.setStatus(StatusQueued, "")
		return
	}
	if err := s.journal.Append(Record{Type: "status", Job: j.id, Status: status, Error: errMsg}); err != nil {
		status, errMsg = StatusFailed, err.Error()
	}
	j.setStatus(status, errMsg)
}

// runCampaign executes a campaign job: cache pass, then the shard
// supervisor over the missing cells. Returns the terminal status, or ""
// when shutdown left the job incomplete.
func (s *Server) runCampaign(ctx context.Context, j *job) (string, string) {
	keys := make([]CellKey, len(j.cells))
	var missing []int
	s.mu.Lock()
	cached := make(map[int]CellRecord)
	quarantined := make(map[int]bool)
	for i := range j.cells {
		keys[i] = j.cellKey(i)
		if rec, ok := s.cells[keys[i]]; ok {
			cached[i] = rec
		} else if _, bad := s.poisonedCells[keys[i]]; bad {
			quarantined[i] = true
		} else {
			missing = append(missing, i)
		}
	}
	s.mu.Unlock()
	for i, rec := range cached {
		j.storeCell(i, j.cachedResult(i, rec), true)
	}
	for i := range quarantined {
		j.storePoison(i)
	}

	sup := &Supervisor{
		Workers: s.cfg.Workers,
		Policy:  s.cfg.Policy,
		Clock:   s.cfg.Clock,
		Seed:    j.cspec.Seed,
		Disrupt: s.cfg.Disrupt,
		Drain:   s.drain,
	}
	// Per-worker simulation scratch: Get/Put brackets each attempt, and
	// the supervisor never abandons an attempt (a timed-out one is
	// awaited), so a scratch is never shared by two live attempts.
	pool := sync.Pool{New: func() any { return new(montecarlo.Scratch) }}
	reports, _ := sup.Run(ctx, len(missing), func(ctx context.Context, shard, attempt int) error {
		i := missing[shard]
		c := j.cells[i]
		scratch := pool.Get().(*montecarlo.Scratch)
		defer pool.Put(scratch)
		res, err := campaign.RunCellContext(ctx, j.cspec, c, s.systems[c.System], 1, scratch)
		if err != nil {
			return err
		}
		rec := CellRecord{Hash: keys[i].Hash, Index: c.Index, Seed: keys[i].Seed, Attempts: attempt, Result: res}
		// Journal before publish: once a client can see the cell, a crash
		// cannot un-complete it.
		if err := s.journal.Append(Record{Type: "cell", Cell: &rec}); err != nil {
			return err
		}
		s.mu.Lock()
		s.cells[keys[i]] = rec
		s.mu.Unlock()
		j.storeCell(i, res, false)
		return nil
	})

	incomplete := false
	for _, rep := range reports {
		if rep.Attempts == 0 || (!rep.Poisoned && rep.Err != "") {
			incomplete = true
		}
	}
	if ctx.Err() != nil {
		if s.isClosing() {
			return "", ""
		}
		return StatusFailed, "cancelled"
	}
	if incomplete {
		return "", ""
	}
	for _, rep := range reports {
		if !rep.Poisoned {
			continue
		}
		i := missing[rep.Shard]
		p := PoisonRecord{Hash: keys[i].Hash, Index: j.cells[i].Index, Seed: keys[i].Seed, Attempts: rep.Attempts, Error: rep.Err}
		if err := s.journal.Append(Record{Type: "poison", Poison: &p}); err != nil {
			return StatusFailed, err.Error()
		}
		s.mu.Lock()
		s.poisonedCells[CellKey{p.Hash, p.Seed}] = p
		s.mu.Unlock()
		j.storePoison(i)
	}
	if err := s.writeCampaignArtifacts(j); err != nil {
		return StatusFailed, err.Error()
	}
	st := j.Status()
	switch {
	case st.Poisoned == 0:
		return StatusDone, ""
	case st.Completed > 0:
		return StatusDegraded, fmt.Sprintf("%d of %d cells poisoned", st.Poisoned, st.Cells)
	default:
		return StatusFailed, "every cell poisoned"
	}
}

// writeCampaignArtifacts persists the job's JSONL stream and summary
// table atomically. The bytes are those of an uninterrupted in-process
// campaign.Run of the same spec: the cells marshal in expansion order
// with the same encoder, and CellResult round-trips JSON exactly, so a
// journal-replayed cell re-marshals to its original bytes.
func (s *Server) writeCampaignArtifacts(j *job) error {
	cells := j.completedCells()
	var buf bytes.Buffer
	for _, c := range cells {
		line, err := json.Marshal(c)
		if err != nil {
			return err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	base := j.artifactBase(s.cfg.StateDir)
	if err := durable.WriteFileAtomic(base+".jsonl", buf.Bytes()); err != nil {
		return err
	}
	res := campaign.NewResult(j.cspec, cells)
	summary := res.SummaryTable()
	if err := durable.WriteFileAtomic(base+".summary.txt", []byte(summary)); err != nil {
		return err
	}
	j.mu.Lock()
	j.summary = summary
	j.mu.Unlock()
	return nil
}

// runSearch executes an adversarial-search job as one supervised shard.
// The engine checkpoints after every generation into the state dir, so a
// shutdown or crash mid-search resumes loss-free.
func (s *Server) runSearch(ctx context.Context, j *job) (string, string) {
	c, err := config.Parse(j.spec.Params)
	if err != nil {
		return StatusFailed, err.Error()
	}
	spec, err := search.FromConfig(c)
	if err != nil {
		return StatusFailed, err.Error()
	}
	factory, ok := s.systems[c.StringOr("search.system", "none")]
	if !ok {
		return StatusFailed, fmt.Sprintf("system %q not available", c.StringOr("search.system", "none"))
	}
	opts := search.Options{CheckpointPath: j.artifactBase(s.cfg.StateDir) + ".checkpoint.json"}
	if _, err := os.Stat(opts.CheckpointPath); err == nil {
		opts.Resume = true
	}

	var res *search.Result
	sup := &Supervisor{Workers: 1, Policy: s.cfg.Policy, Clock: s.cfg.Clock, Seed: spec.Seed, Drain: s.drain}
	reports, _ := sup.Run(ctx, 1, func(ctx context.Context, _, _ int) error {
		r, rerr := search.RunContext(ctx, spec, factory, opts)
		if rerr != nil {
			return rerr
		}
		res = r
		return nil
	})
	if ctx.Err() != nil || res == nil && !reports[0].Poisoned {
		if s.isClosing() || ctx.Err() == nil {
			return "", ""
		}
		return StatusFailed, "cancelled"
	}
	if reports[0].Poisoned {
		return StatusFailed, reports[0].Err
	}
	return s.finishSearch(j, spec, res)
}

// finishSearch persists a completed search's artifacts: the danger
// archive as JSONL, a machine-readable result, and a human summary.
func (s *Server) finishSearch(j *job, spec search.Spec, res *search.Result) (string, string) {
	base := j.artifactBase(s.cfg.StateDir)
	var archive bytes.Buffer
	if res.Archive != nil && res.Archive.Len() > 0 {
		if err := res.Archive.WriteJSONL(&archive); err != nil {
			return StatusFailed, err.Error()
		}
		if err := durable.WriteFileAtomic(base+".archive.jsonl", archive.Bytes()); err != nil {
			return StatusFailed, err.Error()
		}
	}
	payload, err := json.Marshal(struct {
		Name           string  `json:"name"`
		BestFitness    float64 `json:"best_fitness"`
		Generations    int     `json:"generations"`
		NumEvaluations int     `json:"evaluations"`
		ArchiveLen     int     `json:"archive_len"`
		Resumed        bool    `json:"resumed"`
	}{spec.Name, res.Best.Fitness, res.GenerationsRun, res.NumEvaluations, res.Archive.Len(), res.Resumed})
	if err != nil {
		return StatusFailed, err.Error()
	}
	if err := durable.WriteFileAtomic(base+".result.json", append(payload, '\n')); err != nil {
		return StatusFailed, err.Error()
	}
	summary := fmt.Sprintf("search %s: best fitness %.1f after %d generations (%d evaluations), %d archived encounters\n",
		spec.Name, res.Best.Fitness, res.GenerationsRun, res.NumEvaluations, res.Archive.Len())
	if err := durable.WriteFileAtomic(base+".summary.txt", []byte(summary)); err != nil {
		return StatusFailed, err.Error()
	}
	j.mu.Lock()
	j.payload = payload
	j.summary = summary
	j.mu.Unlock()
	return StatusDone, ""
}

// runRare executes a rare-event estimation job as one supervised shard.
// The estimate is a deterministic function of its spec and seed, so there
// is no intermediate state worth journaling: a restart recomputes the
// identical numbers.
func (s *Server) runRare(ctx context.Context, j *job) (string, string) {
	c, err := config.Parse(j.spec.Params)
	if err != nil {
		return StatusFailed, err.Error()
	}
	spec, cfg, factory, err := rareFromConfig(c, s.systems)
	if err != nil {
		return StatusFailed, err.Error()
	}
	model := montecarlo.MultiEncounterModel{Intruders: []montecarlo.EncounterModel{montecarlo.DefaultEncounterModel()}}

	var est *montecarlo.Estimate
	sup := &Supervisor{Workers: 1, Policy: s.cfg.Policy, Clock: s.cfg.Clock, Seed: cfg.Seed, Drain: s.drain}
	reports, _ := sup.Run(ctx, 1, func(ctx context.Context, _, _ int) error {
		var scratch montecarlo.Scratch
		e, rerr := montecarlo.EstimateRareMultiWithScratchContext(ctx, model, factory, cfg, spec, &scratch)
		if rerr != nil {
			return rerr
		}
		est = e
		return nil
	})
	if ctx.Err() != nil || est == nil && !reports[0].Poisoned {
		if s.isClosing() || ctx.Err() == nil {
			return "", ""
		}
		return StatusFailed, "cancelled"
	}
	if reports[0].Poisoned {
		return StatusFailed, reports[0].Err
	}

	payload, err := json.Marshal(est)
	if err != nil {
		return StatusFailed, err.Error()
	}
	base := j.artifactBase(s.cfg.StateDir)
	if err := durable.WriteFileAtomic(base+".result.json", append(payload, '\n')); err != nil {
		return StatusFailed, err.Error()
	}
	summary := fmt.Sprintf("rare %s: P(NMAC) %.3e [%.3e, %.3e] over %d episodes, ESS %.1f, VRF %.1f\n",
		j.spec.Name, est.PNMAC, est.PNMACCI.Lo, est.PNMACCI.Hi, est.Samples, est.ESS, est.VarianceReduction)
	if err := durable.WriteFileAtomic(base+".summary.txt", []byte(summary)); err != nil {
		return StatusFailed, err.Error()
	}
	j.mu.Lock()
	j.payload = payload
	j.summary = summary
	j.mu.Unlock()
	return StatusDone, ""
}

// isClosing reports whether graceful shutdown has begun.
func (s *Server) isClosing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closing
}
