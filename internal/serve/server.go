package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
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
	// Workers is the server-wide count of concurrent campaign cells, over
	// every running job, clamped to NumCPU as sweep's
	// campaign.parallelism is (each served cell runs on one episode
	// worker). A search job holds every slot and runs Workers episode
	// workers (0 = NumCPU, which a search divides over its islands, as
	// casearch -workers 0 does).
	Workers int
	// Policy is the shard retry policy (zero value = defaults).
	Policy RetryPolicy
	// Clock defaults to the real clock; tests inject a fake.
	Clock Clock

	// disrupt is the supervisor fault-injection hook the package tests
	// set, called with the job's id.
	disrupt func(job string, shard, attempt int) error
}

// Server is the crash-safe validation service: an HTTP front end over a
// journaled job queue, one server-wide slot pool and the shard
// supervisor. Jobs start in submission order and run concurrently: the
// next job's cells take the slots the previous job's last cells free,
// while that job journals its status and writes its artifacts, and a job
// whose every cell is cached settles at once without queueing. Every
// completed campaign cell is journaled before it becomes observable, so a
// killed server resumes exactly where it stopped.
type Server struct {
	cfg     Config
	journal *Journal
	mux     *http.ServeMux

	mu            sync.Mutex
	cond          *sync.Cond
	jobs          []*job
	byID          map[string]*job
	queue         []*job // jobs the run loop has not started, oldest first
	feeding       *job   // the started job that may still start a cell
	cells         map[CellKey]CellRecord
	poisonedCells map[CellKey]PoisonRecord
	closing       bool

	// slots is the pool: one token per concurrent cell, each the scratch
	// the cell runs on, reused across cells and jobs.
	slots      chan *montecarlo.Scratch
	running    sync.WaitGroup // job goroutines, added under mu while !closing
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
	slots := cfg.Workers
	if slots < 1 || slots > runtime.NumCPU() {
		slots = runtime.NumCPU()
	}
	s := &Server{
		cfg:           cfg,
		journal:       journal,
		byID:          make(map[string]*job),
		cells:         rep.Cells,
		poisonedCells: rep.Poisoned,
		slots:         make(chan *montecarlo.Scratch, slots),
		drain:         make(chan struct{}),
		runnerDone:    make(chan struct{}),
	}
	for range slots {
		s.slots <- new(montecarlo.Scratch)
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
		if j.status == StatusQueued {
			s.queue = append(s.queue, j)
		}
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
	st := j.Status()
	if s.cachedLocked(j) {
		// It needs no slot, so it settles now instead of waiting behind
		// the jobs ahead of it.
		s.running.Add(1)
		go s.runJob(j, nil)
	} else {
		s.queue = append(s.queue, j)
		s.cond.Signal()
	}
	return st, nil
}

// cachedLocked reports whether every cell of campaign job j is in the
// completed-cell cache or the quarantine. Callers hold s.mu.
func (s *Server) cachedLocked(j *job) bool {
	if j.spec.Kind != KindCampaign {
		return false
	}
	for i := range j.cells {
		key := j.cellKey(i)
		if _, ok := s.cells[key]; !ok {
			if _, bad := s.poisonedCells[key]; !bad {
				return false
			}
		}
	}
	return true
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

// Close gracefully shuts the server down: start no new job and no new
// campaign cell, let in-flight campaign cells finish and be journaled,
// interrupt a long-running search job at its next evaluation boundary
// (its checkpoint makes that loss-free), wait for every job goroutine,
// then close the journal. Jobs left non-terminal resume when the next
// server opens the same state dir.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
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
		close(s.drain)
		<-s.runnerDone
		s.running.Wait()
		s.closeErr = s.journal.Close()
	})
	return s.closeErr
}

// runLoop starts queued jobs in submission order. It starts the oldest
// queued job once the job started before it has started its last cell
// and a slot is free, and hands the job that slot for its first cell. So
// cells start in submission order, one job feeds the pool at a time, and
// a job the pool cannot run yet stays queued, where Cancel and Close
// leave it.
func (s *Server) runLoop() {
	defer close(s.runnerDone)
	for {
		s.mu.Lock()
		for !s.closing && (s.feeding != nil || s.headLocked() == nil) {
			s.cond.Wait()
		}
		closing := s.closing
		s.mu.Unlock()
		if closing {
			return
		}
		var slot *montecarlo.Scratch
		select {
		case slot = <-s.slots:
		case <-s.drain:
			return
		}
		s.mu.Lock()
		if j := s.headLocked(); j != nil && !s.closing {
			s.queue[0] = nil
			s.queue = s.queue[1:]
			s.feeding = j
			s.running.Add(1)
			go s.runJob(j, slot)
			slot = nil
		}
		s.mu.Unlock()
		s.release(slot)
	}
}

// headLocked drops the jobs cancelled while queued off the front of the
// queue and returns the oldest queued job, or nil. Callers hold s.mu.
func (s *Server) headLocked() *job {
	for len(s.queue) > 0 {
		j := s.queue[0]
		j.mu.Lock()
		queued := j.status == StatusQueued
		j.mu.Unlock()
		if queued {
			return j
		}
		s.queue[0] = nil
		s.queue = s.queue[1:]
	}
	return nil
}

// doneFeeding records that job j will start no further cell, so the run
// loop may start the next queued job.
func (s *Server) doneFeeding(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.feeding == j {
		s.feeding = nil
		s.cond.Signal()
	}
}

// acquire returns the slot for a job's next cell: held if non-nil, else
// the next free one. Once ctx ends or shutdown begins it returns nil and
// puts held back: after Close no new cell starts.
func (s *Server) acquire(ctx context.Context, held *montecarlo.Scratch) *montecarlo.Scratch {
	if held == nil {
		select {
		case held = <-s.slots:
		case <-ctx.Done():
			return nil
		case <-s.drain:
			return nil
		}
	}
	if ctx.Err() != nil || s.isClosing() {
		s.release(held)
		return nil
	}
	return held
}

// release returns a slot (nil is none) to the pool.
func (s *Server) release(slot *montecarlo.Scratch) {
	if slot != nil {
		s.slots <- slot
	}
}

// runJob drives one job from queued to terminal (or leaves it queued when
// shutdown interrupted it). slot is the slot the run loop took for the
// job's first cell, nil for a fully cached job.
func (s *Server) runJob(j *job, slot *montecarlo.Scratch) {
	defer s.running.Done()
	defer s.doneFeeding(j)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.mu.Lock()
	if j.status != StatusQueued {
		// Cancelled while waiting in the queue.
		j.mu.Unlock()
		s.release(slot)
		return
	}
	j.status = StatusRunning
	j.cancel = cancel
	j.publish()
	j.mu.Unlock()
	if err := s.journal.Append(Record{Type: "status", Job: j.id, Status: StatusRunning}); err != nil {
		s.release(slot)
		j.setStatus(StatusFailed, err.Error())
		return
	}

	var status, errMsg string
	if j.spec.Kind == KindCampaign {
		status, errMsg = s.runCampaign(ctx, j, slot)
	} else {
		status, errMsg = s.runSearch(ctx, j, slot)
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

// runCampaign executes a campaign job: cache pass, then each missing cell
// on a pool slot under the shard supervisor. Returns the terminal status,
// or "" when shutdown left the job incomplete.
func (s *Server) runCampaign(ctx context.Context, j *job, slot *montecarlo.Scratch) (string, string) {
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

	// The missing cells start in expansion order, each holding a slot for
	// its Supervisor.Do and reusing the slot's scratch; the job holds no
	// slot between cells, nor while it journals and writes artifacts.
	// Shutdown is checked before each cell starts: after Close no new cell
	// starts, and running ones finish and journal. The supervisor never
	// abandons an attempt (a timed-out one is awaited), so a slot's
	// scratch is never shared by two live attempts. Each cell runs on one
	// episode worker.
	sup := &Supervisor{Policy: s.cfg.Policy, Clock: s.cfg.Clock, Seed: j.cspec.Seed}
	if s.cfg.disrupt != nil {
		sup.Disrupt = func(shard, attempt int) error { return s.cfg.disrupt(j.id, shard, attempt) }
	}
	reports := make([]ShardReport, len(missing))
	var cells sync.WaitGroup
	started := 0
	for shard, i := range missing {
		scratch := s.acquire(ctx, slot)
		slot = nil
		if scratch == nil {
			break
		}
		started++
		cells.Add(1)
		go func() {
			defer cells.Done()
			defer s.release(scratch)
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
		}()
	}
	s.release(slot)
	s.doneFeeding(j)
	cells.Wait()

	if ctx.Err() != nil {
		if s.isClosing() {
			return "", ""
		}
		return StatusFailed, "cancelled"
	}
	if started < len(missing) {
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

// runSearch executes an adversarial-search job as one supervised shard
// and writes its artifact set. It holds every slot while it runs, so its
// Workers episode workers take the cores the cells would. The engine
// checkpoints after every generation into the state dir and resumes from
// that checkpoint, so a shutdown, crash or retry mid-search is
// loss-free. Returns the terminal status (cancelled, or poisoned after
// the last retry), or "" when shutdown left the job incomplete or kept it
// from starting.
func (s *Server) runSearch(ctx context.Context, j *job, slot *montecarlo.Scratch) (string, string) {
	held := make([]*montecarlo.Scratch, 0, cap(s.slots))
	for len(held) < cap(s.slots) {
		if slot = s.acquire(ctx, slot); slot == nil {
			break
		}
		held = append(held, slot)
		slot = nil
	}
	s.doneFeeding(j)
	var res *search.Result
	var rep ShardReport
	if len(held) == cap(s.slots) {
		opts := search.Options{
			CheckpointPath: j.artifactBase(s.cfg.StateDir) + search.CheckpointSuffix,
			EpisodeWorkers: s.cfg.Workers,
		}
		sup := &Supervisor{Policy: s.cfg.Policy, Clock: s.cfg.Clock, Seed: j.sspec.Seed}
		rep = sup.Do(ctx, 0, func(ctx context.Context, _ int) (err error) {
			res, err = search.RunContext(ctx, j.sspec, s.cfg.Systems[j.sspec.System], opts)
			return err
		})
	}
	for _, slot := range held {
		s.release(slot)
	}
	switch {
	case ctx.Err() != nil && !s.isClosing():
		return StatusFailed, "cancelled"
	case len(held) < cap(s.slots):
		return "", ""
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
