package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"

	"acasxval/internal/campaign"
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
	// Workers is the campaign cell pool's parallelism, clamped to NumCPU
	// as sweep's campaign.parallelism is (campaign.RunCells; each served
	// cell runs on one episode worker), and the episode workers of search
	// jobs (0 = NumCPU, which a search divides over its islands, as
	// casearch -workers 0 does).
	Workers int
	// Policy is the shard retry policy (zero value = defaults).
	Policy RetryPolicy
	// Clock defaults to the real clock; tests inject a fake.
	Clock Clock

	// disrupt is the supervisor fault-injection hook the package tests set.
	disrupt func(shard, attempt int) error
}

// Server is the crash-safe validation service: an HTTP front end over a
// journaled job queue, the campaign cell pool and the shard supervisor.
// Jobs execute one at a time in submission order (each job saturates the
// workers itself); every completed campaign cell is journaled before it
// becomes observable, so a killed server resumes exactly where it
// stopped.
type Server struct {
	cfg     Config
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
		journal:       journal,
		byID:          make(map[string]*job),
		cells:         rep.Cells,
		poisonedCells: rep.Poisoned,
		drain:         make(chan struct{}),
		runnerDone:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	for _, rj := range rep.Jobs {
		j, jerr := newJob(rj.ID, rj.Spec.Kind, rj.Spec.Params, s.cfg.Systems, false)
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

// errClosing and errNotJournaled are the Submit failures that are the
// server's, not the spec's: the HTTP front end answers 503 and 500 for
// them and 400 for every other rejection.
var (
	errClosing      = errors.New("serve: server is shutting down")
	errNotJournaled = errors.New("serve: job not journaled")
)

// Submit enqueues a job programmatically (the HTTP POST /jobs handler is
// a thin wrapper). The job record is journaled before Submit returns:
// an acknowledged job survives a crash.
func (s *Server) Submit(kind, params string) (JobStatus, error) {
	j, err := newJob("", kind, params, s.cfg.Systems, true)
	if err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return JobStatus{}, errClosing
	}
	j.id = fmt.Sprintf("job-%04d", len(s.jobs)+1)
	if err := s.journal.Append(Record{Type: "job", Job: j.id, Spec: &j.spec}); err != nil {
		return JobStatus{}, fmt.Errorf("%w: %w", errNotJournaled, err)
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

// Close gracefully shuts the server down: start no new campaign cell,
// let in-flight campaign cells finish and be journaled, interrupt a
// long-running search job at its next evaluation boundary (its
// checkpoint makes that loss-free), then close the journal. Jobs left
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

// runCampaign executes a campaign job: cache pass, then the missing
// cells through campaign.RunCells, each under the shard supervisor.
// Returns the terminal status, or "" when shutdown left the job
// incomplete.
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

	// Shutdown is checked before each cell starts: after Close no new
	// cell starts, and running ones finish and journal. The supervisor
	// never abandons an attempt (a timed-out one is awaited), so the
	// worker's scratch is never shared by two live attempts. Each cell
	// runs on one episode worker, ignoring the pool's spill, which keeps
	// the served schedule as it was measured; a spill would change
	// wall-clock only, and a backend panic on an episode goroutine
	// reaches Do either way.
	sup := &Supervisor{Policy: s.cfg.Policy, Clock: s.cfg.Clock, Seed: j.cspec.Seed, Disrupt: s.cfg.disrupt}
	reports := make([]ShardReport, len(missing))
	err := campaign.RunCells(ctx, len(missing), s.cfg.Workers, func(shard, _ int, scratch *montecarlo.Scratch) error {
		if s.isClosing() {
			return errClosing
		}
		i := missing[shard]
		c := j.cells[i]
		reports[shard] = sup.Do(ctx, shard, func(ctx context.Context, attempt int) error {
			res, err := campaign.RunCellContext(ctx, j.cspec, c, s.cfg.Systems[c.System], 1, scratch)
			if err != nil {
				return err
			}
			rec := CellRecord{Hash: keys[i].Hash, Index: c.Index, Seed: keys[i].Seed, Attempts: attempt, Result: res}
			// Journal before publish: once a client can see the cell, a
			// crash cannot un-complete it.
			if err := s.journal.Append(Record{Type: "cell", Cell: &rec}); err != nil {
				return err
			}
			s.mu.Lock()
			s.cells[keys[i]] = rec
			s.mu.Unlock()
			j.storeCell(i, res, false)
			return nil
		})
		return nil
	})

	if ctx.Err() != nil {
		if s.isClosing() {
			return "", ""
		}
		return StatusFailed, "cancelled"
	}
	if err != nil {
		// Shutdown kept some cells from starting.
		return "", ""
	}
	for shard, rep := range reports {
		if !rep.Poisoned {
			continue
		}
		i := missing[shard]
		p := PoisonRecord{Hash: keys[i].Hash, Index: j.cells[i].Index, Seed: keys[i].Seed, Attempts: rep.Attempts, Error: rep.Err}
		if err := s.journal.Append(Record{Type: "poison", Poison: &p}); err != nil {
			return StatusFailed, err.Error()
		}
		s.mu.Lock()
		s.poisonedCells[CellKey{p.Hash, p.Seed}] = p
		s.mu.Unlock()
		j.storePoison(i)
	}
	// The artifacts are those of an uninterrupted in-process campaign run
	// of the same spec: CellResult round-trips JSON exactly, so a
	// journal-replayed cell re-marshals to its original bytes.
	artifacts, err := campaign.NewResult(j.cspec, j.completedCells()).Artifacts()
	if err == nil {
		err = durable.WriteArtifacts(j.artifactBase(s.cfg.StateDir), artifacts)
	}
	if err != nil {
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

// runSearch executes an adversarial-search job as one supervised shard on
// the server's workers and writes its artifact set. The engine checkpoints
// after every generation into the state dir and resumes from that
// checkpoint, so a shutdown, crash or retry mid-search is loss-free.
// Returns the terminal status (cancelled, or poisoned after the last
// retry), or "" when shutdown left the job incomplete or kept it from
// starting.
func (s *Server) runSearch(ctx context.Context, j *job) (string, string) {
	if s.isClosing() {
		return "", ""
	}
	opts := search.Options{
		CheckpointPath: j.artifactBase(s.cfg.StateDir) + search.CheckpointSuffix,
		EpisodeWorkers: s.cfg.Workers,
	}
	var res *search.Result
	sup := &Supervisor{Policy: s.cfg.Policy, Clock: s.cfg.Clock, Seed: j.sspec.Seed}
	switch rep := sup.Do(ctx, 0, func(ctx context.Context, _ int) (err error) {
		res, err = search.RunContext(ctx, j.sspec, s.cfg.Systems[j.sspec.System], opts)
		return err
	}); {
	case ctx.Err() != nil && !s.isClosing():
		return StatusFailed, "cancelled"
	case rep.Poisoned:
		return StatusFailed, rep.Err
	case rep.Err != "":
		return "", ""
	}
	artifacts, err := res.Artifacts(j.sspec)
	if err == nil {
		err = durable.WriteArtifacts(j.artifactBase(s.cfg.StateDir), artifacts)
	}
	if err != nil {
		return StatusFailed, err.Error()
	}
	return StatusDone, ""
}

// isClosing reports whether graceful shutdown has begun.
func (s *Server) isClosing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closing
}
