package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"acasxval"
	"acasxval/internal/campaign"
	"acasxval/internal/config"
	"acasxval/internal/durable"
	"acasxval/internal/encounter"
	"acasxval/internal/montecarlo"
	"acasxval/internal/serve"
	"acasxval/internal/sim"
	"acasxval/internal/stats"
)

// The served job: two presets against the unequipped baseline and ACAS XU,
// so every job is four campaign cells.
var (
	servePresets = []string{"headon", "crossing"}
	serveSystems = []string{"none", "acasx"}
)

const (
	serveClients = 2
	serveCells   = 4
	// resubmitEvery: each client's every 4th job resubmits, respelled, the
	// job it ran just before, which the completed-cell cache must serve.
	resubmitEvery = 4
)

// serveWorkload drives an in-process caserve server over a real loopback
// HTTP server: two clients in a closed loop, each on one keep-alive
// connection, POST a campaign job and read its stream to EOF.
type serveWorkload struct {
	e    *env
	inst *serveInstance
	next [serveClients]int // each client's next job index
	want digest

	// From the last untraced phase, for the serve layer rows.
	jobs []servedJob
}

// serveInstance is one server with its state directory and listener.
type serveInstance struct {
	srv  *acasxval.ValidationServer
	dir  string
	http *http.Server
	done chan error
	base string
}

func startServer(work string, systems acasxval.CampaignSystems) (*serveInstance, error) {
	dir, err := os.MkdirTemp(work, "serve-state-")
	if err != nil {
		return nil, err
	}
	srv, err := acasxval.NewValidationServer(acasxval.ValidationServerConfig{StateDir: dir, Systems: systems})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	in := &serveInstance{srv: srv, dir: dir, done: make(chan error, 1), base: "http://" + ln.Addr().String(),
		http: &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}}
	go func() { in.done <- in.http.Serve(ln) }()
	return in, nil
}

// stop shuts the HTTP server, then the validation server, and removes
// the state directory.
func (in *serveInstance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.http.Shutdown(ctx)
	if serr := <-in.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := in.srv.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(in.dir); err == nil {
		err = rerr
	}
	return err
}

func (w *serveWorkload) setup(e *env) error {
	w.e = e
	if err := w.close(); err != nil {
		return err
	}
	in, err := startServer(e.work, acasxval.DefaultCampaignSystems(e.table))
	w.inst = in
	return err
}

// jobParams is the spec of a client's job. A resubmission spells the
// spec of the job before it differently: reordered keys, spacing,
// comments. Its cells are the same, so it must hit the cell cache.
func (w *serveWorkload) jobParams(client, idx int) (params string, cached bool) {
	cached = idx%resubmitEvery == resubmitEvery-1
	fresh := idx
	if cached {
		fresh = idx - 1
	}
	seed := stats.DeriveSeed(stats.DeriveSeed(w.e.seed, client), fresh)
	if cached {
		return fmt.Sprintf("# resubmission of job %d\ncampaign.seed   =   %d\ncampaign.samples = %d\ncampaign.systems = none,acasx\ncampaign.presets = headon,crossing\ncampaign.name = bench\n",
			fresh, seed, w.e.size.serveSamples), true
	}
	return fmt.Sprintf("campaign.name = bench\ncampaign.presets = headon, crossing\ncampaign.systems = none, acasx\ncampaign.samples = %d\ncampaign.seed = %d\n",
		w.e.size.serveSamples, seed), false
}

// servedJob is one client request as observed from the client.
type servedJob struct {
	client, idx     int
	cached          bool
	params, id      string
	start, ack, end time.Time
	sha             string
	lines           int
	err             error
}

func (j servedJob) latencyMS() float64 { return float64(j.end.Sub(j.start)) / 1e6 }

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// do submits one job and reads its stream to EOF.
func (w *serveWorkload) do(ctx context.Context, cl *http.Client, base string, client, idx int, job active) servedJob {
	params, cached := w.jobParams(client, idx)
	j := servedJob{client: client, idx: idx, cached: cached, params: params, start: time.Now()}
	body, _ := json.Marshal(serve.SubmitRequest{Kind: serve.KindCampaign, Params: params})
	submit := job.child("submit")
	var st acasxval.ValidationJobStatus
	j.err = request(ctx, cl, http.MethodPost, base+"/jobs", body, http.StatusAccepted, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&st)
	})
	submit.end()
	j.ack, j.id = time.Now(), st.ID
	if j.err != nil {
		return j
	}
	stream := job.child("stream")
	h := sha256.New()
	j.err = request(ctx, cl, http.MethodGet, base+"/jobs/"+st.ID+"/stream", nil, http.StatusOK, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		for sc.Scan() {
			h.Write(sc.Bytes())
			h.Write([]byte{'\n'})
			j.lines++
		}
		return sc.Err()
	})
	stream.end()
	j.end, j.sha = time.Now(), hex.EncodeToString(h.Sum(nil))
	return j
}

// request performs one HTTP exchange, reading the body to EOF so the
// keep-alive connection is reused.
func request(ctx context.Context, cl *http.Client, method, url string, body []byte, want int, read func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	err = read(resp.Body)
	if _, derr := io.Copy(io.Discard, resp.Body); err == nil {
		err = derr
	}
	return err
}

func (w *serveWorkload) warmup(ctx context.Context) (digest, error) {
	cl := newClient()
	defer cl.CloseIdleConnections()
	j := w.do(ctx, cl, w.inst.base, 0, w.claim(0, 1), active{})
	w.check(ctx, w.inst, []servedJob{j})
	if j.err != nil {
		return digest{}, j.err
	}
	w.want = digest{JobSHA256: j.sha}
	return w.want, nil
}

// claim reserves n job indices for a client.
func (w *serveWorkload) claim(client, n int) int {
	idx := w.next[client]
	w.next[client] += n
	return idx
}

func (w *serveWorkload) measure(ctx context.Context, budget time.Duration, traced bool) (measurement, error) {
	in := w.inst
	if traced {
		// The traced phase runs against its own server whose system
		// menu hands out probed systems; its journal starts empty.
		systems := acasxval.CampaignSystems{}
		for name, f := range acasxval.DefaultCampaignSystems(w.e.table) {
			systems[name] = montecarlo.SystemFactory(w.e.traced.wrap(f))
		}
		var err error
		if in, err = startServer(w.e.work, systems); err != nil {
			return measurement{}, err
		}
	}
	// Phases start on a resubmission boundary so every resubmission's
	// original ran on the same server.
	for c := range w.next {
		w.next[c] = (w.next[c] + resubmitEvery - 1) / resubmitEvery * resubmitEvery
	}
	start := time.Now()
	var mu sync.Mutex
	var jobs []servedJob
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			for n := 0; n < resubmitEvery || time.Since(start) < budget; n++ {
				mu.Lock()
				idx := w.claim(client, 1)
				mu.Unlock()
				job := w.e.root("job", traced)
				j := w.do(ctx, cl, in.base, client, idx, job)
				job.end()
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
				if j.err != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].end.Before(jobs[b].end) })
	w.check(ctx, in, jobs)
	m := w.windows(jobs, start)
	m.wall = wall
	for _, j := range jobs {
		if !j.cached {
			m.simulated += float64(serveCells * w.e.size.serveSamples)
		}
	}
	if traced {
		if err := in.stop(); err != nil {
			return m, err
		}
	} else {
		w.jobs = jobs
	}
	return m, nil
}

// windows groups the jobs, in completion order, into throughput windows
// of serveWindow jobs; a short tail joins the last full window.
func (w *serveWorkload) windows(jobs []servedJob, start time.Time) measurement {
	var m measurement
	size := w.e.size.serveWindow
	prev := start
	for i := 0; i < len(jobs); i += size {
		end := min(i+size, len(jobs))
		if len(jobs)-end < size/2 {
			end = len(jobs)
		}
		win := window{seconds: jobs[end-1].end.Sub(prev).Seconds()}
		for _, j := range jobs[i:end] {
			win.units += serveCells
			win.episodes += float64(serveCells * w.e.size.serveSamples)
			win.latMS = append(win.latMS, j.latencyMS())
		}
		m.windows = append(m.windows, win)
		prev = jobs[end-1].end
		i = end - size
	}
	return m
}

// check verifies served jobs after the timed window: every request
// succeeded, every job finished done with four cells, every resubmission
// was served from the cache and streamed the bytes of its original, and
// a sample of fresh jobs (always the first) streamed the bytes of a
// direct in-process campaign run of the same spec.
func (w *serveWorkload) check(ctx context.Context, in *serveInstance, jobs []servedJob) {
	c := w.e.check
	sha := map[[2]int]string{}
	for _, j := range jobs {
		sha[[2]int{j.client, j.idx}] = j.sha
	}
	fresh := 0
	for _, j := range jobs {
		c.op()
		if j.err != nil {
			c.fail("job %d/%d: %v", j.client, j.idx, j.err)
			continue
		}
		st, ok := in.srv.Job(j.id)
		wantHits := 0
		if j.cached {
			wantHits = serveCells
		}
		switch {
		case !ok || st.Status != serve.StatusDone:
			c.fail("job %s: status %q (%s)", j.id, st.Status, st.Error)
		case j.lines != serveCells:
			c.fail("job %s: streamed %d cells, want %d", j.id, j.lines, serveCells)
		case st.CacheHits != wantHits:
			c.fail("job %s: %d cache hits, want %d", j.id, st.CacheHits, wantHits)
		}
		if j.cached {
			if orig, ok := sha[[2]int{j.client, j.idx - 1}]; ok && orig != j.sha {
				c.fail("job %s: resubmission streamed different bytes from its original", j.id)
			}
			continue
		}
		if fresh%w.e.size.serveChecks == 0 {
			direct, err := w.direct(ctx, j.params)
			if err != nil {
				c.fail("direct run of job %s: %v", j.id, err)
			} else if direct != j.sha {
				c.fail("job %s: streamed JSONL differs from a direct campaign run", j.id)
			}
		}
		fresh++
	}
}

// direct runs a job's spec in process and hashes its JSONL.
func (w *serveWorkload) direct(ctx context.Context, params string) (string, error) {
	spec, err := parseCampaign(params)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	if _, err := acasxval.RunCampaignContext(ctx, spec, acasxval.DefaultCampaignSystems(w.e.table), h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func parseCampaign(params string) (acasxval.CampaignSpec, error) {
	c, err := config.Parse(params)
	if err != nil {
		return acasxval.CampaignSpec{}, err
	}
	return campaign.FromConfig(c)
}

// source replays the served cells: each preset against each system, one
// episode per draw in cell order.
func (w *serveWorkload) source() episodeSource {
	systems := acasxval.DefaultCampaignSystems(w.e.table)
	src := episodeSource{run: sim.DefaultRunConfig(), parallelism: 1, scratch: true, seed: w.e.seed}
	for _, name := range serveSystems {
		src.factories = append(src.factories, systems[name])
		src.equipped = append(src.equipped, campaign.NeedsTable(name))
	}
	presets := make([]encounter.MultiParams, len(servePresets))
	for i, name := range servePresets {
		presets[i], _ = encounter.MultiPreset(name)
	}
	src.model = montecarlo.MultiPointModel(presets[0]).Prepared()
	src.draw = func(i int) (encounter.MultiParams, int) {
		cell := i % serveCells
		return presets[cell/len(serveSystems)], cell % len(serveSystems)
	}
	return src
}

// layers adds the service's own rungs: one campaign cell, one durable
// journal append, the HTTP round trip, and the job latency split by type.
func (w *serveWorkload) layers(ctx context.Context, out map[string]stat) error {
	var submit, fresh, cached []float64
	for _, j := range w.jobs {
		submit = append(submit, float64(j.ack.Sub(j.start))/1e6)
		if j.cached {
			cached = append(cached, j.latencyMS())
		} else {
			fresh = append(fresh, j.latencyMS())
		}
	}
	out["serve.submit_ms_p50"] = summarize(submit)
	out["serve.fresh_job_ms_p50"] = summarize(fresh)
	out["serve.cached_job_ms_p50"] = summarize(cached)

	records, err := countLines(filepath.Join(w.inst.dir, serve.JournalFile))
	if err != nil {
		return err
	}
	out["serve.journal_records_per_job"] = single(float64(records) / float64(len(w.inst.srv.Jobs())))

	cl := newClient()
	defer cl.CloseIdleConnections()
	var rtt []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if err := request(ctx, cl, http.MethodGet, w.inst.base+"/healthz", nil, http.StatusOK, func(io.Reader) error { return nil }); err != nil {
			return err
		}
		rtt = append(rtt, float64(time.Since(t0))/1e3)
	}
	out["serve.http_rtt_us"] = summarize(rtt)

	line, err := w.cellLayer(ctx, out)
	if err != nil {
		return err
	}
	return w.appendLayer(line, out)
}

// cellLayer times campaign.RunCellContext on the cells of fresh job specs
// as the server's workers run them (one episode worker, reused scratch),
// and returns one journal cell record for the append rung.
func (w *serveWorkload) cellLayer(ctx context.Context, out map[string]stat) ([]byte, error) {
	systems := acasxval.DefaultCampaignSystems(w.e.table)
	var scratch montecarlo.Scratch
	var ms []float64
	var rec []byte
	for n := 0; n < 3; n++ {
		params, _ := w.jobParams(serveClients, n*resubmitEvery)
		spec, err := parseCampaign(params)
		if err != nil {
			return nil, err
		}
		cells, err := spec.Cells()
		if err != nil {
			return nil, err
		}
		for _, c := range cells {
			t0 := time.Now()
			res, err := campaign.RunCellContext(ctx, spec, c, systems[c.System], 1, &scratch)
			if err != nil {
				return nil, err
			}
			ms = append(ms, float64(time.Since(t0))/1e6)
			if rec, err = json.Marshal(serve.Record{Type: "cell", Cell: &serve.CellRecord{Index: c.Index, Attempts: 1, Result: res}}); err != nil {
				return nil, err
			}
		}
	}
	out["campaign.cell_ms"] = summarize(ms)
	return rec, nil
}

// appendLayer times durable appends (write + fsync) of a journal cell
// record into a sibling directory on the state directory's filesystem.
func (w *serveWorkload) appendLayer(line []byte, out map[string]stat) error {
	dir, err := os.MkdirTemp(w.e.work, "append-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	aw, err := durable.OpenAppend(filepath.Join(dir, serve.JournalFile))
	if err != nil {
		return err
	}
	var us []float64
	for i := 0; i < 200; i++ {
		span := w.e.rec.root("append")
		t0 := time.Now()
		err := aw.AppendLine(line)
		us = append(us, float64(time.Since(t0))/1e3)
		span.end()
		if err != nil {
			aw.Close()
			return err
		}
	}
	if err := aw.Close(); err != nil {
		return err
	}
	out["durable.append_us_p50"] = withQuartiles(quantile(us, 0.5), us)
	out["durable.append_us_p90"] = withQuartiles(quantile(us, 0.9), us)
	return nil
}

func countLines(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return bytes.Count(data, []byte{'\n'}), nil
}

func (w *serveWorkload) close() error {
	in := w.inst
	if in == nil {
		return nil
	}
	w.inst = nil
	return in.stop()
}
