package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"acasxval/internal/campaign"
	"acasxval/internal/durable"
)

// JournalFile is the journal's filename inside the server's state
// directory.
const JournalFile = "journal.jsonl"

// Job status values. A job is terminal in StatusDone, StatusDegraded or
// StatusFailed; anything else resumes when a restarted server replays the
// journal.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"     // every cell completed
	StatusDegraded = "degraded" // some cells poisoned, the rest completed
	StatusFailed   = "failed"   // setup error, or nothing completed
)

// JobSpec is the durable description of a submitted job: enough to
// rebuild and resume it after a restart. Params is the submitted ECJ
// parameter text verbatim — the server re-parses it on replay, so the
// journal never has to serialize engine structs beyond cell results.
type JobSpec struct {
	// Kind is "campaign" or "search". Journals written before the rare
	// job kind was retired may also hold "rare" jobs, which replay as
	// failed.
	Kind string `json:"kind"`
	// Name is the parsed spec's name, for listings.
	Name string `json:"name"`
	// SpecHash is the canonical campaign spec hash (campaign jobs only);
	// it keys the job's cells in the completed-cell cache.
	SpecHash string `json:"spec_hash,omitempty"`
	// Params is the submitted ECJ parameter text.
	Params string `json:"params"`
}

// CellKey identifies one completed campaign cell across jobs: the cell's
// identity hash (CellHash — the shared spec knobs plus the cell's own
// axis point, position-independent) and its derived Monte-Carlo seed.
// Two jobs that share a cell — a resubmitted campaign, or an overlapping
// sweep with one more system or preset — produce the same key and share
// the cached result.
type CellKey struct {
	Hash string
	Seed uint64
}

// CellRecord journals one completed cell with its provenance. Index is
// the cell's position in the journaling job's expansion — observability
// only; the cache key is (Hash, Seed), and a job replaying the record
// rewrites the index to its own expansion position.
type CellRecord struct {
	Hash  string `json:"hash"`
	Index int    `json:"index"`
	Seed  uint64 `json:"seed"`
	// Attempts is how many tries the cell took (1 = first try).
	Attempts int                 `json:"attempts"`
	Result   campaign.CellResult `json:"result"`
}

// PoisonRecord journals a quarantined cell: one that kept failing until
// the retry budget ran out and was withdrawn from scheduling.
type PoisonRecord struct {
	Hash     string `json:"hash"`
	Index    int    `json:"index"`
	Seed     uint64 `json:"seed"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error"`
}

// Record is one journal line. Type selects which payload field is set:
//
//	"job"    a submitted job (Job id + Spec)
//	"cell"   a completed campaign cell (Cell)
//	"poison" a quarantined campaign cell (Poison)
//	"status" a job status transition (Job + Status, Error when failed)
type Record struct {
	Type   string        `json:"type"`
	Job    string        `json:"job,omitempty"`
	Spec   *JobSpec      `json:"spec,omitempty"`
	Cell   *CellRecord   `json:"cell,omitempty"`
	Poison *PoisonRecord `json:"poison,omitempty"`
	Status string        `json:"status,omitempty"`
	Error  string        `json:"error,omitempty"`
}

// Journal is the server's append-only durable log. Every Append fsyncs
// before returning (durable.AppendWriter), so a record the server acted
// on is on disk before any client can observe the action.
type Journal struct {
	mu sync.Mutex
	w  *durable.AppendWriter
}

// OpenJournal opens (creating if needed) the journal in dir.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: open journal: %w", err)
	}
	w, err := durable.OpenAppend(filepath.Join(dir, JournalFile))
	if err != nil {
		return nil, fmt.Errorf("serve: open journal: %w", err)
	}
	return &Journal{w: w}, nil
}

// Append durably writes one record.
func (j *Journal) Append(rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: journal append: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.AppendLine(data); err != nil {
		return fmt.Errorf("serve: journal append: %w", err)
	}
	return nil
}

// Close releases the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.w.Close()
}

// ReplayJob is one job reconstructed from the journal, in submission
// order, with its last recorded status.
type ReplayJob struct {
	ID     string
	Spec   JobSpec
	Status string
	Error  string
}

// Replay is the state reconstructed from a journal: the jobs in
// submission order and the completed-cell cache. Truncated reports that
// the journal ended in a half-written record — the record being appended
// when the server died — which replay skips: the action it logged never
// became observable, so dropping it is exactly the crash semantics the
// fsync-before-act discipline promises.
type Replay struct {
	Jobs      []ReplayJob
	Cells     map[CellKey]CellRecord
	Poisoned  map[CellKey]PoisonRecord
	Truncated bool
}

// ReplayJournal reads the journal in dir and reconstructs server state.
// A missing journal replays to empty state (first boot).
func ReplayJournal(dir string) (*Replay, error) {
	rep := &Replay{
		Cells:    make(map[CellKey]CellRecord),
		Poisoned: make(map[CellKey]PoisonRecord),
	}
	f, err := os.Open(filepath.Join(dir, JournalFile))
	if os.IsNotExist(err) {
		return rep, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: replay journal: %w", err)
	}
	defer f.Close()

	index := make(map[string]int) // job id -> rep.Jobs index
	rep.Truncated, err = durable.ScanJSONL(f, func(line int, data []byte) error {
		var rec Record
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("serve: journal line %d: %w", line, err)
		}
		switch rec.Type {
		case "job":
			if rec.Spec == nil || rec.Job == "" {
				return fmt.Errorf("serve: journal line %d: job record without id or spec", line)
			}
			if _, dup := index[rec.Job]; dup {
				return fmt.Errorf("serve: journal line %d: duplicate job %q", line, rec.Job)
			}
			index[rec.Job] = len(rep.Jobs)
			rep.Jobs = append(rep.Jobs, ReplayJob{ID: rec.Job, Spec: *rec.Spec, Status: StatusQueued})
		case "cell":
			if rec.Cell == nil {
				return fmt.Errorf("serve: journal line %d: cell record without payload", line)
			}
			c := *rec.Cell
			rep.Cells[CellKey{c.Hash, c.Seed}] = c
		case "poison":
			if rec.Poison == nil {
				return fmt.Errorf("serve: journal line %d: poison record without payload", line)
			}
			p := *rec.Poison
			rep.Poisoned[CellKey{p.Hash, p.Seed}] = p
		case "status":
			i, ok := index[rec.Job]
			if !ok {
				return fmt.Errorf("serve: journal line %d: status for unknown job %q", line, rec.Job)
			}
			rep.Jobs[i].Status = rec.Status
			rep.Jobs[i].Error = rec.Error
		default:
			return fmt.Errorf("serve: journal line %d: unknown record type %q", line, rec.Type)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}
