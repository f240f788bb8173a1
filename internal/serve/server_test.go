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
func newTestServer(t *testing.T, dir string, disrupt func(shard, attempt int) error) *Server {
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
	disrupt := func(shard, attempt int) error {
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
	disrupt := func(shard, attempt int) error {
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

// TestServerGracefulShutdownResume: a server closed mid-campaign starts
// no new cell, lets the running one finish and journal, and leaves the
// job non-terminal; a new server over the same state dir finishes it
// from the journal with cache hits and byte-identical artifacts.
func TestServerGracefulShutdownResume(t *testing.T) {
	wantJSONL, wantSummary := reference(t, testCampaignParams)
	dir := t.TempDir()
	// Slow each first attempt a little so the close lands mid-campaign.
	slow := func(shard, attempt int) error {
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
	disrupt := func(shard, attempt int) error {
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
	disrupt := func(shard, attempt int) error {
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
	disrupt := func(shard, attempt int) error {
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

// TestServerRareJob: a rare-event estimation job runs end to end.
func TestServerRareJob(t *testing.T) {
	const params = `
rare.name = serve-rare
rare.method = bruteforce
rare.samples = 50
rare.seed = 5
rare.system = none
`
	srv := newTestServer(t, t.TempDir(), nil)
	defer srv.Close()
	st, err := srv.Submit(KindRare, params)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, srv, st.ID)
	if final.Status != StatusDone {
		t.Fatalf("rare job status %+v", final)
	}
	data, err := os.ReadFile(srv.byID[st.ID].artifactBase(srv.cfg.StateDir) + ".result.json")
	if err != nil {
		t.Fatal(err)
	}
	var est struct{ Samples int }
	if err := json.Unmarshal(data, &est); err != nil {
		t.Fatal(err)
	}
	if est.Samples != 50 {
		t.Errorf("rare payload samples = %d, want 50", est.Samples)
	}
}

// TestServerRareJobWorkers: a rare job runs on the server's workers, and
// its artifacts do not depend on their count. A two-system job writes one
// result line per system, which its stream serves, and the risk ratio
// against "none".
func TestServerRareJobWorkers(t *testing.T) {
	const params = "rare.system = svo, none\nrare.samples = 200\nrare.seed = 5\n"
	var results [2][]byte
	for i, workers := range []int{1, 2} {
		srv, err := NewServer(Config{StateDir: t.TempDir(), Workers: workers, Policy: testPolicy})
		if err != nil {
			t.Fatal(err)
		}
		st, err := srv.Submit(KindRare, params)
		if err != nil {
			t.Fatal(err)
		}
		if final := waitDone(t, srv, st.ID); final.Status != StatusDone {
			t.Fatalf("rare job status %+v", final)
		}
		stream := httptest.NewRecorder()
		srv.ServeHTTP(stream, httptest.NewRequest(http.MethodGet, "/jobs/"+st.ID+"/stream", nil))
		base := srv.byID[st.ID].artifactBase(srv.cfg.StateDir)
		srv.Close()
		if results[i], err = os.ReadFile(base + ".result.json"); err != nil {
			t.Fatal(err)
		}
		if got := stream.Body.Bytes(); !bytes.Equal(got, results[i]) {
			t.Errorf("stream %q, want the result lines %q", got, results[i])
		}
		summary, err := os.ReadFile(base + ".summary.txt")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(summary), "risk ratio svo vs unequipped") {
			t.Errorf("summary has no risk ratio:\n%s", summary)
		}
	}
	if lines := bytes.Count(results[0], []byte("\n")); lines != 2 {
		t.Errorf("%d result lines, want one per system:\n%s", lines, results[0])
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Errorf("result at 2 workers differs from 1:\n%s\nvs\n%s", results[1], results[0])
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

// TestServerRejectsBadSubmissions: malformed jobs — misspelt keys and
// rare-event tuning without rare.method included — are rejected at submit
// time, never queued.
func TestServerRejectsBadSubmissions(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), nil)
	defer srv.Close()
	cases := map[string][2]string{
		"unknown kind":    {"mystery", testCampaignParams},
		"bad params":      {KindCampaign, "campaign.samples = banana\n"},
		"unknown system":  {KindCampaign, "campaign.name = t\ncampaign.presets = headon\ncampaign.systems = warpdrive\n"},
		"empty campaign":  {KindCampaign, "campaign.name = t\ncampaign.presets =\n"},
		"campaign typo":   {KindCampaign, testCampaignParams + "campaign.sampels = 3\n"},
		"search typo":     {KindSearch, "search.system = svo\nsearch.migration.intervl = 3\n"},
		"rare typo":       {KindRare, "rare.method = is\nrare.sampels = 30\n"},
		"rare tuning":     {KindRare, "rare.samples = 30\nrare.defensive = 0.3\n"},
		"rare system":     {KindRare, "rare.system = svo, warpdrive\n"},
		"rare fault typo": {KindRare, "rare.faults.presett = severe\n"},
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
		{Kind: KindRare, Name: "rare", Params: "rare.sampels = 30\nrare.defensive = 0.3\n"},
		// A single-system rare job as journaled before rare.system took a
		// list and the rare.faults.* keys.
		{Kind: KindRare, Name: "serve-rare", Params: "rare.name = serve-rare\nrare.method = bruteforce\nrare.samples = 50\nrare.seed = 5\nrare.system = none\n"},
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
		disrupt:  func(int, int) error { return errors.New("admission test: cells do not run") },
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

	for _, name := range []string{"sweep", "backends", "faults", "multi", "rare"} {
		params, err := os.ReadFile(filepath.Join("..", "..", "params", name+"-demo.params"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(SubmitRequest{Kind: KindCampaign, Params: string(params)})
		if code := post(body); code != http.StatusAccepted {
			t.Errorf("%s-demo.params: status %d, want %d", name, code, http.StatusAccepted)
		}
	}
}
