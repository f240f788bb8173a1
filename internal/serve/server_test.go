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
	"acasxval/internal/montecarlo"
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
	srv, err := NewServer(Config{StateDir: dir, Workers: 2, Policy: testPolicy, Disrupt: disrupt})
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

// TestServerGracefulShutdownResume: a server closed mid-campaign leaves
// the job resumable; a new server over the same state dir finishes it
// from the journal with cache hits and byte-identical artifacts.
func TestServerGracefulShutdownResume(t *testing.T) {
	wantJSONL, wantSummary := reference(t, testCampaignParams)
	dir := t.TempDir()
	// Slow each first attempt a little so the close lands mid-campaign.
	slow := func(shard, attempt int) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	}
	srv, err := NewServer(Config{StateDir: dir, Workers: 1, Policy: testPolicy, Disrupt: slow})
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

// TestServerRejectsBadSubmissions: malformed jobs are rejected at submit
// time, never queued.
func TestServerRejectsBadSubmissions(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), nil)
	defer srv.Close()
	cases := map[string][2]string{
		"unknown kind":   {"mystery", testCampaignParams},
		"bad params":     {KindCampaign, "campaign.samples = banana\n"},
		"unknown system": {KindCampaign, "campaign.name = t\ncampaign.presets = headon\ncampaign.systems = warpdrive\n"},
		"empty campaign": {KindCampaign, "campaign.name = t\ncampaign.presets =\n"},
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
		Disrupt:  func(int, int) error { return errors.New("admission test: cells do not run") },
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
