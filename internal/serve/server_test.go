package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"acasxval/internal/campaign"
	"acasxval/internal/config"
	"acasxval/internal/geom"
	"acasxval/internal/montecarlo"
	"acasxval/internal/search"
	"acasxval/internal/sim"
	"acasxval/internal/uav"
)

// testCampaignParams is a small, fast campaign: 2 presets x 2 systems =
// 4 cells of 3 samples each.
const testCampaignParams = `
campaign.name = serve-test
campaign.presets = headon, crossing
campaign.systems = none, svo
campaign.samples = 3
campaign.seed = 7
`

// testPolicy retries fast: tests that inject failures should not sleep.
var testPolicy = RetryPolicy{MaxAttempts: 3, BackoffBase: time.Microsecond, BackoffMax: time.Millisecond}

// newTestServer opens a server over dir with the fast retry policy.
func newTestServer(t *testing.T, dir string, disrupt func(job string, shard, attempt int) error) *Server {
	t.Helper()
	srv, err := NewServer(Config{StateDir: dir, Workers: 2, Policy: testPolicy, disrupt: disrupt})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// reference runs the campaign in process — no server, no journal — and
// returns the JSONL and summary bytes every server path must reproduce.
func reference(t *testing.T, params string) (string, string) {
	t.Helper()
	c, err := config.Parse(params)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := campaign.FromConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	var jsonl bytes.Buffer
	res, err := campaign.RunContext(context.Background(), spec, campaign.DefaultSystems(nil), &jsonl)
	if err != nil {
		t.Fatal(err)
	}
	return jsonl.String(), res.SummaryTable()
}

// artifacts reads a terminal job's JSONL and summary files.
func artifacts(t *testing.T, srv *Server, id string) (string, string) {
	t.Helper()
	base := srv.byID[id].artifactBase(srv.cfg.StateDir)
	jsonl, err := os.ReadFile(base + ".jsonl")
	if err != nil {
		t.Fatal(err)
	}
	summary, err := os.ReadFile(base + ".summary.txt")
	if err != nil {
		t.Fatal(err)
	}
	return string(jsonl), string(summary)
}

func waitDone(t *testing.T, srv *Server, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := srv.WaitJob(ctx, id)
	if err != nil {
		t.Fatalf("WaitJob(%s): %v (status %+v)", id, err, st)
	}
	return st
}

// TestServerCampaignByteIdentity: a job run through the full service
// stack — journal, supervisor, artifacts — produces byte-identical JSONL
// and summary to a plain in-process campaign.Run.
func TestServerCampaignByteIdentity(t *testing.T) {
	wantJSONL, wantSummary := reference(t, testCampaignParams)
	srv := newTestServer(t, t.TempDir(), nil)
	defer srv.Close()

	st, err := srv.Submit(KindCampaign, testCampaignParams)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusQueued || st.Cells != 4 || st.SpecHash == "" {
		t.Fatalf("submitted status %+v", st)
	}
	final := waitDone(t, srv, st.ID)
	if final.Status != StatusDone || final.Completed != 4 || final.Poisoned != 0 {
		t.Fatalf("final status %+v, want done with 4 cells", final)
	}
	gotJSONL, gotSummary := artifacts(t, srv, st.ID)
	if gotJSONL != wantJSONL {
		t.Errorf("JSONL differs from in-process run:\ngot:\n%s\nwant:\n%s", gotJSONL, wantJSONL)
	}
	if gotSummary != wantSummary {
		t.Errorf("summary differs from in-process run:\ngot:\n%s\nwant:\n%s", gotSummary, wantSummary)
	}
}

// TestServerHTTPEndpoints drives the same job through the HTTP API.
func TestServerHTTPEndpoints(t *testing.T) {
	wantJSONL, wantSummary := reference(t, testCampaignParams)
	srv := newTestServer(t, t.TempDir(), nil)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body, _ := json.Marshal(SubmitRequest{Kind: KindCampaign, Params: testCampaignParams})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The stream endpoint follows the job live and ends at terminal
	// status with the full cell stream.
	resp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if _, err := stream.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stream.String() != wantJSONL {
		t.Errorf("stream differs from reference JSONL:\ngot:\n%s\nwant:\n%s", stream.String(), wantJSONL)
	}

	get := func(path string, wantCode int) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, wantCode)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return buf.String()
	}
	if got := get("/jobs/"+st.ID+"/result", http.StatusOK); got != wantJSONL {
		t.Errorf("/result differs from reference JSONL")
	}
	if got := get("/jobs/"+st.ID+"/summary", http.StatusOK); got != wantSummary {
		t.Errorf("/summary differs from reference summary")
	}
	var list []JobStatus
	if err := json.Unmarshal([]byte(get("/jobs", http.StatusOK)), &list); err != nil || len(list) != 1 {
		t.Errorf("GET /jobs = %v (err %v), want one job", list, err)
	}
	var one JobStatus
	if err := json.Unmarshal([]byte(get("/jobs/"+st.ID, http.StatusOK)), &one); err != nil || one.Status != StatusDone {
		t.Errorf("GET /jobs/%s = %+v (err %v), want done", st.ID, one, err)
	}
	get("/jobs/nope", http.StatusNotFound)
	get("/healthz", http.StatusOK)
}

// TestServerInjectedFailuresByteIdentical: per-cell failures — errors,
// panics — on first attempts are retried, and the final artifacts are
// bit-identical to the failure-free run. This is the paired-seed
// determinism argument made operational: a retried cell redraws the
// identical stochastic stream.
func TestServerInjectedFailuresByteIdentical(t *testing.T) {
	wantJSONL, wantSummary := reference(t, testCampaignParams)
	var mu sync.Mutex
	injected := 0
	disrupt := func(_ string, shard, attempt int) error {
		if attempt > 1 {
			return nil
		}
		mu.Lock()
		injected++
		mu.Unlock()
		if shard%2 == 0 {
			panic(fmt.Sprintf("injected panic on shard %d", shard))
		}
		return fmt.Errorf("injected failure on shard %d", shard)
	}
	srv := newTestServer(t, t.TempDir(), disrupt)
	defer srv.Close()

	st, err := srv.Submit(KindCampaign, testCampaignParams)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, srv, st.ID)
	if final.Status != StatusDone || final.Completed != 4 {
		t.Fatalf("final status %+v, want done despite injected failures", final)
	}
	mu.Lock()
	n := injected
	mu.Unlock()
	if n != 4 {
		t.Errorf("injected %d first-attempt failures, want 4", n)
	}
	gotJSONL, gotSummary := artifacts(t, srv, st.ID)
	if gotJSONL != wantJSONL || gotSummary != wantSummary {
		t.Errorf("artifacts differ from failure-free run after injected failures")
	}
}

// TestServerPoisonDegraded: a cell failing beyond the retry budget is
// quarantined — reported exactly once, the job degrades instead of
// failing, and the quarantine persists across a resubmit.
func TestServerPoisonDegraded(t *testing.T) {
	dir := t.TempDir()
	disrupt := func(_ string, shard, attempt int) error {
		if shard == 0 {
			return fmt.Errorf("persistent failure")
		}
		return nil
	}
	srv := newTestServer(t, dir, disrupt)
	defer srv.Close()

	st, err := srv.Submit(KindCampaign, testCampaignParams)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, srv, st.ID)
	if final.Status != StatusDegraded || final.Poisoned != 1 || final.Completed != 3 {
		t.Fatalf("final status %+v, want degraded with 1 poisoned, 3 completed", final)
	}
	if !strings.Contains(final.Error, "1 of 4 cells poisoned") {
		t.Errorf("error %q does not report the poisoned count", final.Error)
	}
	// The journal reports the poisoned cell exactly once.
	rep, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Poisoned) != 1 {
		t.Fatalf("journal has %d poison records, want 1", len(rep.Poisoned))
	}
	// The degraded artifacts still rank the systems that did run: 3 of 4
	// cells present.
	gotJSONL, _ := artifacts(t, srv, st.ID)
	if n := strings.Count(gotJSONL, "\n"); n != 3 {
		t.Errorf("degraded JSONL has %d lines, want 3", n)
	}

	// Resubmission hits the cache for completed cells and the quarantine
	// for the poisoned one — no infinite retry loop.
	st2, err := srv.Submit(KindCampaign, testCampaignParams)
	if err != nil {
		t.Fatal(err)
	}
	final2 := waitDone(t, srv, st2.ID)
	if final2.Status != StatusDegraded || final2.CacheHits != 3 || final2.Poisoned != 1 {
		t.Fatalf("resubmitted status %+v, want degraded with 3 cache hits", final2)
	}
}

// panicSystem is a backend that crashes inside every episode.
type panicSystem struct{}

func (panicSystem) Decide(float64, uav.State, geom.Vec3, geom.Vec3, sim.Constraint) sim.Decision {
	panic("backend crashed")
}

func (panicSystem) Reset() { panic("backend crashed") }

// TestServerEpisodePanicQuarantined: a backend that panics inside the
// episodes of a job's only missing cell, on a server with spare workers
// and enough samples for several episode workers, is quarantined like
// any failing cell. Were the cell's episodes spread over episode
// goroutines, the panic would escape Supervisor.Do and kill the test
// binary.
func TestServerEpisodePanicQuarantined(t *testing.T) {
	dir := t.TempDir()
	systems := campaign.DefaultSystems(nil)
	systems["svo"] = func() (sim.System, sim.System) { return panicSystem{}, panicSystem{} }
	srv, err := NewServer(Config{StateDir: dir, Systems: systems, Workers: 2, Policy: testPolicy})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	st, err := srv.Submit(KindCampaign, `
campaign.name = serve-panic
campaign.presets = headon
campaign.systems = svo
campaign.samples = 64
campaign.seed = 7
`)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, srv, st.ID)
	if final.Status != StatusFailed || final.Poisoned != 1 || final.Completed != 0 {
		t.Fatalf("final status %+v, want failed with 1 poisoned cell", final)
	}
	rep, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Poisoned) != 1 {
		t.Fatalf("journal has %d poison records, want 1", len(rep.Poisoned))
	}
	for _, p := range rep.Poisoned {
		if p.Attempts != testPolicy.MaxAttempts || !strings.Contains(p.Error, "backend crashed") {
			t.Errorf("poison record %+v, want %d attempts and the panic message", p, testPolicy.MaxAttempts)
		}
	}
}

// TestServerCacheHitsOnResubmit: an identical spec resubmitted — even
// spelled differently — recomputes nothing.
func TestServerCacheHitsOnResubmit(t *testing.T) {
	wantJSONL, wantSummary := reference(t, testCampaignParams)
	srv := newTestServer(t, t.TempDir(), nil)
	defer srv.Close()
	st, err := srv.Submit(KindCampaign, testCampaignParams)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, srv, st.ID)

	// Same campaign, different spelling: explicit parallelism (a
	// scheduling knob outside the canonical identity).
	st2, err := srv.Submit(KindCampaign, testCampaignParams+"campaign.parallelism = 8\n")
	if err != nil {
		t.Fatal(err)
	}
	if st2.SpecHash != st.SpecHash {
		t.Fatalf("respelled spec hashes %s vs %s, want equal", st2.SpecHash, st.SpecHash)
	}
	final := waitDone(t, srv, st2.ID)
	if final.Status != StatusDone || final.CacheHits != 4 {
		t.Fatalf("resubmitted status %+v, want done with 4 cache hits", final)
	}
	gotJSONL, gotSummary := artifacts(t, srv, st2.ID)
	if gotJSONL != wantJSONL || gotSummary != wantSummary {
		t.Errorf("cached artifacts differ from reference")
	}

	// An overlapping sweep — one extra system — reuses the shared cells.
	overlap := strings.Replace(testCampaignParams, "none, svo", "none, svo, apf", 1)
	st3, err := srv.Submit(KindCampaign, overlap)
	if err != nil {
		t.Fatal(err)
	}
	final3 := waitDone(t, srv, st3.ID)
	if final3.Status != StatusDone || final3.CacheHits != 4 || final3.Completed != 6 {
		t.Fatalf("overlapping sweep status %+v, want 6 cells with 4 cache hits", final3)
	}
}

// TestServerIgnoresOtherResultsVersion: a state directory journaled by a
// build under the previous results version, whose table or code computed
// other numbers, serves none of its cells: the resubmitted campaign gets 0
// cache hits and the bytes of a fresh run. The same records under the
// current version are all served, so the journal alone decides.
func TestServerIgnoresOtherResultsVersion(t *testing.T) {
	wantJSONL, wantSummary := reference(t, testCampaignParams)
	c, err := config.Parse(testCampaignParams)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := campaign.FromConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ version, hits int }{
		{campaign.ResultsVersion - 1, 0},
		{campaign.ResultsVersion, len(cells)},
	} {
		dir := t.TempDir()
		journal, err := OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i, cell := range cells {
			hash, err := cellHash(tc.version, spec, cell)
			if err != nil {
				t.Fatal(err)
			}
			// A result no fresh run gives: served, it would show.
			stale := campaign.CellResult{Index: i, Campaign: spec.Name, System: cell.System, Samples: spec.Samples, MeanMinSep: 345.6}
			rec := CellRecord{Hash: hash, Index: i, Seed: campaign.CellSeed(spec.Seed, cell), Attempts: 1, Result: stale}
			if err := journal.Append(Record{Type: "cell", Cell: &rec}); err != nil {
				t.Fatal(err)
			}
		}
		if err := journal.Close(); err != nil {
			t.Fatal(err)
		}

		srv := newTestServer(t, dir, nil)
		st, err := srv.Submit(KindCampaign, testCampaignParams)
		if err != nil {
			t.Fatal(err)
		}
		final := waitDone(t, srv, st.ID)
		if final.Status != StatusDone || final.CacheHits != tc.hits {
			t.Errorf("version %d journal: status %+v, want done with %d cache hits", tc.version, final, tc.hits)
		}
		if tc.hits == 0 {
			if gotJSONL, gotSummary := artifacts(t, srv, st.ID); gotJSONL != wantJSONL || gotSummary != wantSummary {
				t.Errorf("version %d journal: artifacts differ from a fresh run:\n%s", tc.version, gotJSONL)
			}
		}
		srv.Close()
	}
}

// TestServerGracefulShutdownResume: a server closed mid-campaign starts
// no new cell, lets the running one finish and journal, and leaves the
// job non-terminal; a new server over the same state dir finishes it
// from the journal with cache hits and byte-identical artifacts.
func TestServerGracefulShutdownResume(t *testing.T) {
	wantJSONL, wantSummary := reference(t, testCampaignParams)
	dir := t.TempDir()
	// Slow each first attempt a little so the close lands mid-campaign.
	slow := func(string, int, int) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	}
	srv, err := NewServer(Config{StateDir: dir, Workers: 1, Policy: testPolicy, disrupt: slow})
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.Submit(KindCampaign, testCampaignParams)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first cell to complete, then shut down gracefully.
	for {
		cur, _ := srv.Job(st.ID)
		if cur.Completed >= 1 || terminal(cur.Status) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if cur, _ := srv.Job(st.ID); terminal(cur.Status) {
		t.Fatalf("closed job is %s, want it left non-terminal for resume", cur.Status)
	}
	rep, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.Cells); n < 1 || n >= 4 {
		t.Fatalf("%d cells journaled at shutdown, want the finished ones only (1 to 3 of 4)", n)
	}
	if terminal(rep.Jobs[0].Status) {
		t.Fatalf("journal has the closed job %s, want it non-terminal", rep.Jobs[0].Status)
	}

	srv2 := newTestServer(t, dir, nil)
	defer srv2.Close()
	final := waitDone(t, srv2, st.ID)
	if final.Status != StatusDone || final.Completed != 4 {
		t.Fatalf("resumed status %+v, want done with 4 cells", final)
	}
	if final.CacheHits < 1 {
		t.Errorf("resumed job reports %d cache hits, want >= 1 (the pre-shutdown cells)", final.CacheHits)
	}
	gotJSONL, gotSummary := artifacts(t, srv2, st.ID)
	if gotJSONL != wantJSONL || gotSummary != wantSummary {
		t.Errorf("resumed artifacts differ from uninterrupted reference")
	}
}

// TestServerCancelJob: cancelling a running job fails it without
// touching the queue's other work.
func TestServerCancelJob(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	disrupt := func(_ string, shard, attempt int) error {
		once.Do(func() { close(block) })
		time.Sleep(5 * time.Millisecond)
		return nil
	}
	srv := newTestServer(t, t.TempDir(), disrupt)
	defer srv.Close()
	st, err := srv.Submit(KindCampaign, testCampaignParams)
	if err != nil {
		t.Fatal(err)
	}
	<-block
	if err := srv.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, srv, st.ID)
	if final.Status != StatusFailed || final.Error != "cancelled" {
		t.Fatalf("cancelled job status %+v", final)
	}
	if err := srv.Cancel(st.ID); err == nil {
		t.Error("cancelling a terminal job succeeded")
	}
}

// TestServerCancelQueuedJob: cancelling a job still waiting in the queue
// fails it durably. It never runs, and a restart on the same state dir
// replays it as cancelled, not as queued work.
func TestServerCancelQueuedJob(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	disrupt := func(_ string, shard, attempt int) error {
		once.Do(func() { close(started) })
		<-release
		return nil
	}
	dir := t.TempDir()
	srv := newTestServer(t, dir, disrupt)
	first, err := srv.Submit(KindCampaign, testCampaignParams)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	second, err := srv.Submit(KindCampaign, testCampaignParams)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := srv.Job(second.ID); st.Status != StatusQueued {
		t.Fatalf("second job %+v, want queued behind the running one", st)
	}
	if err := srv.Cancel(second.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	if st := waitDone(t, srv, first.ID); st.Status != StatusDone {
		t.Fatalf("first job %+v, want done", st)
	}
	if st := waitDone(t, srv, second.ID); st.Status != StatusFailed || st.Error != "cancelled" {
		t.Fatalf("cancelled job %+v", st)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := newTestServer(t, dir, nil)
	defer srv2.Close()
	st, ok := srv2.Job(second.ID)
	if !ok || st.Status != StatusFailed || st.Error != "cancelled" || st.Completed != 0 {
		t.Fatalf("replayed cancelled job %+v (found %v), want failed/cancelled with no cells", st, ok)
	}
	base := srv2.byID[second.ID].artifactBase(dir)
	for _, ext := range []string{".jsonl", ".summary.txt"} {
		if _, err := os.Stat(base + ext); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("cancelled job has artifact %s (stat: %v)", base+ext, err)
		}
	}
}

// TestServerCancelQueuedJobJournalFailure: a cancellation that cannot be
// journaled is not published. The job stays queued, as a restart would
// replay it.
func TestServerCancelQueuedJobJournalFailure(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	disrupt := func(_ string, shard, attempt int) error {
		once.Do(func() { close(started) })
		<-release
		return nil
	}
	srv := newTestServer(t, t.TempDir(), disrupt)
	if _, err := srv.Submit(KindCampaign, testCampaignParams); err != nil {
		t.Fatal(err)
	}
	<-started
	second, err := srv.Submit(KindCampaign, testCampaignParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.journal.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Cancel(second.ID); err == nil {
		t.Error("Cancel succeeded with a closed journal")
	}
	if st, _ := srv.Job(second.ID); st.Status != StatusQueued {
		t.Errorf("job after a failed cancellation %+v, want still queued", st)
	}
	close(release)
	srv.Close() // the journal is already closed; only the runner matters
}

// TestServerSearchJob: a small adversarial search runs as a supervised
// job, checkpoints into the state dir, and reports its result.
func TestServerSearchJob(t *testing.T) {
	const params = `
search.name = serve-search
search.islands = 1
pop.size = 6
generations = 2
search.sims = 4
seed = 3
`
	srv := newTestServer(t, t.TempDir(), nil)
	defer srv.Close()
	st, err := srv.Submit(KindSearch, params)
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "serve-search" {
		t.Errorf("job name %q", st.Name)
	}
	final := waitDone(t, srv, st.ID)
	if final.Status != StatusDone {
		t.Fatalf("search job status %+v", final)
	}
	data, err := os.ReadFile(srv.byID[st.ID].artifactBase(srv.cfg.StateDir) + ".result.json")
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Generations    int `json:"generations"`
		NumEvaluations int `json:"evaluations"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Generations != 2 || payload.NumEvaluations == 0 {
		t.Errorf("search payload %+v, want 2 generations and some evaluations", payload)
	}
	if _, err := os.Stat(srv.byID[st.ID].artifactBase(srv.cfg.StateDir) + ".checkpoint.json"); err != nil {
		t.Errorf("no checkpoint artifact: %v", err)
	}
}

// TestServerSearchJobShutdownResume: a server closed mid-search leaves the
// job queued; a new server over the same state dir resumes it from its
// checkpoint, and the archive equals an uninterrupted search's.
func TestServerSearchJobShutdownResume(t *testing.T) {
	const params = "search.system = slow\nsearch.islands = 1\npop.size = 6\ngenerations = 10\nsearch.sims = 3\nsearch.archive.threshold = 500\n"
	// A factory that sleeps makes every evaluation take a millisecond, so
	// the close lands well before the last generation.
	systems := campaign.DefaultSystems(nil)
	systems["slow"] = func() (sim.System, sim.System) {
		time.Sleep(time.Millisecond)
		return systems["svo"]()
	}
	dir := t.TempDir()
	open := func() *Server {
		srv, err := NewServer(Config{StateDir: dir, Systems: systems, Workers: 1, Policy: testPolicy})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := open()
	st, err := srv.Submit(KindSearch, params)
	if err != nil {
		t.Fatal(err)
	}
	base := srv.byID[st.ID].artifactBase(dir)
	for {
		if _, err := os.Stat(base + search.CheckpointSuffix); err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if cur := srv.byID[st.ID].Status(); cur.Status != StatusQueued {
		t.Fatalf("search job after shutdown %+v, want queued", cur)
	}

	srv2 := open()
	defer srv2.Close()
	if final := waitDone(t, srv2, st.ID); final.Status != StatusDone {
		t.Fatalf("resumed search job %+v", final)
	}
	result, err := os.ReadFile(base + ".result.json")
	if err != nil || !strings.Contains(string(result), `"resumed":true`) {
		t.Errorf("result %s (%v), want a resumed run", result, err)
	}
	c, _ := config.Parse(params)
	spec, err := search.FromConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := search.RunContext(context.Background(), spec, systems["svo"], search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wantArchive bytes.Buffer
	if err := want.Archive.WriteJSONL(&wantArchive); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(base + ".archive.jsonl"); err != nil || !bytes.Equal(got, wantArchive.Bytes()) {
		t.Errorf("resumed archive (%v):\n%s\nwant:\n%s", err, got, wantArchive.Bytes())
	}
}

// TestServerRareJob: a state directory whose journal holds jobs of the
// retired rare kind, one done and one queued, still opens. Both read
// failed with an error naming the kind and its replacement, the campaign
// job queued behind them runs, and a new rare submission is refused.
func TestServerRareJob(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	specs := []JobSpec{
		{Kind: "rare", Name: "rare", Params: "rare.samples = 200\nrare.seed = 5\n"},
		{Kind: "rare", Name: "serve-rare", Params: "rare.name = serve-rare\nrare.method = bruteforce\nrare.samples = 50\nrare.seed = 5\n"},
		{Kind: KindCampaign, Name: "serve-test", Params: testCampaignParams},
	}
	for i := range specs {
		if err := j.Append(Record{Type: "job", Job: fmt.Sprintf("job-%04d", i+1), Spec: &specs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(Record{Type: "status", Job: "job-0001", Status: StatusDone}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, dir, nil)
	defer srv.Close()
	for _, id := range []string{"job-0001", "job-0002"} {
		st, _ := srv.Job(id)
		if st.Status != StatusFailed || !strings.Contains(st.Error, `"rare"`) || !strings.Contains(st.Error, "campaign.estimator.methods") {
			t.Errorf("%s replayed as %+v, want failed naming the retired kind and campaign.estimator.methods", id, st)
		}
	}
	if final := waitDone(t, srv, "job-0003"); final.Status != StatusDone {
		t.Errorf("campaign job behind the rare jobs: %+v", final)
	}
	body, _ := json.Marshal(SubmitRequest{Kind: "rare", Params: specs[0].Params})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "campaign.estimator.methods") {
		t.Errorf("POST of a rare job: %d %s, want 400 pointing to campaign.estimator.methods", rec.Code, rec.Body)
	}
}

// TestServerRareJobWorkers: the rare job's successor, a campaign of
// estimator cells with no presets, gives the same JSONL and summary
// bytes on 1 and 2 workers as an in-process run, with one line per
// system and the risk ratio against the unequipped baseline.
func TestServerRareJobWorkers(t *testing.T) {
	const params = "campaign.presets =\ncampaign.systems = svo, none\ncampaign.samples = 200\ncampaign.seed = 5\ncampaign.estimator.methods = bruteforce\n"
	wantJSONL, wantSummary := reference(t, params)
	for _, workers := range []int{1, 2} {
		srv, err := NewServer(Config{StateDir: t.TempDir(), Workers: workers, Policy: testPolicy})
		if err != nil {
			t.Fatal(err)
		}
		st, err := srv.Submit(KindCampaign, params)
		if err != nil {
			t.Fatal(err)
		}
		if final := waitDone(t, srv, st.ID); final.Status != StatusDone || final.Completed != 2 {
			t.Fatalf("estimator job status %+v, want done with 2 cells", final)
		}
		gotJSONL, gotSummary := artifacts(t, srv, st.ID)
		srv.Close()
		if gotJSONL != wantJSONL {
			t.Errorf("JSONL at %d workers differs from in-process run:\ngot:\n%s\nwant:\n%s", workers, gotJSONL, wantJSONL)
		}
		if gotSummary != wantSummary {
			t.Errorf("summary at %d workers differs from in-process run:\ngot:\n%s\nwant:\n%s", workers, gotSummary, wantSummary)
		}
	}
	if lines := strings.Count(wantJSONL, "\n"); lines != 2 {
		t.Errorf("%d JSONL lines, want one per system:\n%s", lines, wantJSONL)
	}
	if !strings.Contains(wantSummary, "risk ratio") {
		t.Errorf("summary has no risk ratio:\n%s", wantSummary)
	}
}

// TestServerSearchPanicQuarantined: a search job whose backend panics on
// its island and episode goroutines (2 islands on 2 workers) is
// quarantined after the policy's attempts, and the server goes on to run
// the next job.
func TestServerSearchPanicQuarantined(t *testing.T) {
	systems := campaign.DefaultSystems(nil)
	systems["crash"] = func() (sim.System, sim.System) { return panicSystem{}, panicSystem{} }
	srv, err := NewServer(Config{StateDir: t.TempDir(), Systems: systems, Workers: 2, Policy: testPolicy})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	st, err := srv.Submit(KindSearch, "search.system = crash\nsearch.islands = 2\npop.size = 4\ngenerations = 2\nsearch.sims = 32\n")
	if err != nil {
		t.Fatal(err)
	}
	next, err := srv.Submit(KindCampaign, testCampaignParams)
	if err != nil {
		t.Fatal(err)
	}
	if final := waitDone(t, srv, st.ID); final.Status != StatusFailed || !strings.Contains(final.Error, "backend crashed") {
		t.Errorf("search job %+v, want failed with the backend's panic", final)
	}
	if final := waitDone(t, srv, next.ID); final.Status != StatusDone {
		t.Errorf("job after the crashed search: %+v", final)
	}
}

// TestServerSearchJobWorkers: a served search runs its episodes on the
// server's workers, and its artifacts are byte-identical at 1 and 2.
func TestServerSearchJobWorkers(t *testing.T) {
	const params = "search.system = svo\nsearch.islands = 2\npop.size = 6\ngenerations = 2\nsearch.sims = 3\nsearch.archive.threshold = 1000\n"
	suffixes := []string{".archive.jsonl", ".result.json", ".summary.txt", search.CheckpointSuffix}
	var artifacts [2][][]byte
	for i, workers := range []int{1, 2} {
		srv, err := NewServer(Config{StateDir: t.TempDir(), Workers: workers, Policy: testPolicy})
		if err != nil {
			t.Fatal(err)
		}
		st, err := srv.Submit(KindSearch, params)
		if err != nil {
			t.Fatal(err)
		}
		if final := waitDone(t, srv, st.ID); final.Status != StatusDone {
			t.Fatalf("search job status %+v", final)
		}
		base := srv.byID[st.ID].artifactBase(srv.cfg.StateDir)
		srv.Close()
		for _, suffix := range suffixes {
			data, err := os.ReadFile(base + suffix)
			if err != nil {
				t.Fatal(err)
			}
			artifacts[i] = append(artifacts[i], data)
		}
	}
	for k, suffix := range suffixes {
		if !bytes.Equal(artifacts[0][k], artifacts[1][k]) {
			t.Errorf("%s at 2 workers differs from 1:\n%s\nvs\n%s", suffix, artifacts[1][k], artifacts[0][k])
		}
	}
}

// TestServerRejectsBadSubmissions: malformed jobs, misspelt keys
// included, are rejected at submit time, never queued.
func TestServerRejectsBadSubmissions(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), nil)
	defer srv.Close()
	cases := map[string][2]string{
		"unknown kind":   {"mystery", testCampaignParams},
		"bad params":     {KindCampaign, "campaign.samples = banana\n"},
		"unknown system": {KindCampaign, "campaign.name = t\ncampaign.presets = headon\ncampaign.systems = warpdrive\n"},
		"empty campaign": {KindCampaign, "campaign.name = t\ncampaign.presets =\n"},
		"campaign typo":  {KindCampaign, testCampaignParams + "campaign.sampels = 3\n"},
		"search typo":    {KindSearch, "search.system = svo\nsearch.migration.intervl = 3\n"},
	}
	for name, c := range cases {
		if _, err := srv.Submit(c[0], c[1]); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if jobs := srv.Jobs(); len(jobs) != 0 {
		t.Errorf("rejected submissions left %d jobs queued", len(jobs))
	}
}

// TestServerSubmitStatusCodes: POST /jobs answers 400 for a spec the
// server rejects, 500 when the journal cannot record the job and 503
// once the server is shutting down.
func TestServerSubmitStatusCodes(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), nil)
	post := func(params string) int {
		t.Helper()
		body, err := json.Marshal(SubmitRequest{Kind: KindCampaign, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		return rec.Code
	}
	if code := post("campaign.samples = banana\n"); code != http.StatusBadRequest {
		t.Errorf("malformed spec: status %d, want 400", code)
	}
	// A journal that cannot append (a full disk, here a closed file) is
	// the server's failure, not the client's.
	if err := srv.journal.Close(); err != nil {
		t.Fatal(err)
	}
	if code := post(testCampaignParams); code != http.StatusInternalServerError {
		t.Errorf("journal append failure: status %d, want 500", code)
	}
	srv.Close()
	if code := post(testCampaignParams); code != http.StatusServiceUnavailable {
		t.Errorf("shutting down: status %d, want 503", code)
	}
	if jobs := srv.Jobs(); len(jobs) != 0 {
		t.Errorf("failed submissions left %d jobs queued", len(jobs))
	}
}

// TestReplayKeepsAcceptedJobs: a job journaled before the parsers
// rejected unread keys replays with the status it was journaled with —
// a done job must not turn failed after an upgrade.
func TestReplayKeepsAcceptedJobs(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	specs := []JobSpec{
		{Kind: KindCampaign, Name: "serve-test", Params: testCampaignParams + "campaign.sampels = 3\n"},
		{Kind: KindSearch, Name: "search", Params: "search.migration.intervl = 3\n"},
	}
	for i := range specs {
		id := fmt.Sprintf("job-%04d", i+1)
		if err := j.Append(Record{Type: "job", Job: id, Spec: &specs[i]}); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(Record{Type: "status", Job: id, Status: StatusDone}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, dir, nil)
	defer srv.Close()
	for i := range specs {
		id := fmt.Sprintf("job-%04d", i+1)
		if st := srv.byID[id].Status(); st.Status != StatusDone {
			t.Errorf("%s (%s) replayed as %s (%s), want done", id, specs[i].Kind, st.Status, st.Error)
		}
	}
}

// TestServerSubmitBodyLimit: a POST /jobs body one byte over the cap is
// refused with 413 before it is decoded, while every shipped campaign
// spec still fits and is accepted. The server fails every cell attempt
// through the fault hook, so the admitted jobs quarantine at once instead
// of simulating.
func TestServerSubmitBodyLimit(t *testing.T) {
	systems := campaign.DefaultSystems(nil)
	// Admission only checks names: the table-driven backends are stubbed,
	// since no cell ever runs.
	for _, name := range []string{"acasx", "belief"} {
		systems[name] = montecarlo.Unequipped
	}
	srv, err := NewServer(Config{
		StateDir: t.TempDir(),
		Systems:  systems,
		Workers:  1,
		Policy:   RetryPolicy{MaxAttempts: 1},
		disrupt:  func(string, int, int) error { return errors.New("admission test: cells do not run") },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// A syntactically valid request whose closing brace is the first byte
	// past the cap: the decoder must read over the limit to finish it.
	prefix := `{"kind":"campaign","params":"`
	suffix := `"}`
	pad := strings.Repeat(" ", maxSubmitBytes+1-len(prefix)-len(suffix))
	if code := post([]byte(prefix + pad + suffix)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("body of %d bytes: status %d, want %d", maxSubmitBytes+1, code, http.StatusRequestEntityTooLarge)
	}

	for _, name := range []string{"sweep-demo", "backends-demo", "faults-demo", "multi-demo", "rare-demo", "montecarlo"} {
		params, err := os.ReadFile(filepath.Join("..", "..", "params", name+".params"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(SubmitRequest{Kind: KindCampaign, Params: string(params)})
		if code := post(body); code != http.StatusAccepted {
			t.Errorf("%s.params: status %d, want %d", name, code, http.StatusAccepted)
		}
	}
}
