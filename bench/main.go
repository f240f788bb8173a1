// Command cabench is the repository benchmark. It runs one named workload
// per process against the public entry points users call — the root
// package facade and the caserve validation server behind a loopback
// http.Server — checks that every repetition reproduces the same outputs,
// and prints every metric by name with its unit.
//
// Run it from the repository root (bench/run.sh builds it):
//
//	bash bench/run.sh --workload mc-equipped --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload serve-mixed --trace 1
//	.bench_build/cabench -compare OLD.json NEW.json
//
// Each run writes <out>/<workload>.json; a traced run also writes
// <out>/<workload>.trace.json. The last line of standard output is a JSON
// summary: the end-to-end metrics of an untraced run, or the per-layer
// metrics of a traced one. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"acasxval"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// options select one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	size     sizes
}

// Shares of --seconds a traced run gives its phases: the untraced
// measurement, the traced slice, and the ladder's timed rounds.
const (
	tracedUntraced = 0.4
	tracedSlice    = 0.3
	tracedLadder   = 0.2
)

func cli(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("cabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", defaultSeed, "input seed; testdata/golden.json pins the outputs at the default")
	seconds := fs.Float64("seconds", 20, "measurement time of one run, seconds")
	trace := fs.Int("trace", 0, "1: after the untraced measurement, run a traced slice and the layer ladder and report per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for the result and trace files")
	compare := fs.Bool("compare", false, "compare two result files or directories of them: -compare OLD NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "cabench: -compare needs OLD and NEW result paths")
			return 2
		}
		return compareCmd(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fs.Usage()
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, size: fullSizes()}
	r, rec, err := runWorkload(ctx, opts, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "cabench:", err)
		return 1
	}
	if err := writeJSON(filepath.Join(opts.out, opts.workload+".json"), r); err != nil {
		fmt.Fprintln(stderr, "cabench:", err)
		return 1
	}
	if rec != nil {
		trace := struct {
			Spans      []span     `json:"spans"`
			Incomplete int        `json:"incomplete_traces"`
			SelfTime   []selfTime `json:"self_time"`
		}{rec.spans, len(rec.dropped), r.SelfTime}
		if err := writeJSON(filepath.Join(opts.out, opts.workload+".trace.json"), trace); err != nil {
			fmt.Fprintln(stderr, "cabench:", err)
			return 1
		}
	}
	for _, msg := range r.Failures {
		fmt.Fprintln(stderr, "cabench: FAILED:", msg)
	}
	line, err := json.Marshal(driverSummary(r))
	if err != nil {
		fmt.Fprintln(stderr, "cabench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !r.Correct {
		return 1
	}
	return 0
}

func compareCmd(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := loadResults(oldPath)
	if err == nil {
		var cur map[string][]*result
		if cur, err = loadResults(newPath); err == nil {
			var vs []verdict
			if vs, err = compareResults(old, cur); err == nil {
				printVerdicts(stdout, vs)
				for _, v := range vs {
					if v.Status == "regressed" {
						return 1
					}
				}
				return 0
			}
		}
	}
	fmt.Fprintln(stderr, "cabench: compare:", err)
	return 2
}

// runWorkload performs one run: timed set-ups, an untimed warm-up whose
// outputs every later job must reproduce, the untraced measurement and,
// when traced, the traced slice and the layer ladder.
func runWorkload(ctx context.Context, o options, log io.Writer) (res *result, rec *recorder, err error) {
	var w workload
	for _, def := range workloads {
		if def.name == o.workload {
			w = def.make()
		}
	}
	if w == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, nil, err
	}
	work, err := os.MkdirTemp(o.out, "work-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)
	e := &env{seed: o.seed, size: o.size, work: work, check: &checks{}, speed: &speed{}}
	defer func() {
		if cerr := w.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()

	sp := e.speed
	sp.sample(o.size.calibrations)
	var setupS, heapMB []float64
	for i := 0; i < o.size.setupReps; i++ {
		t0 := time.Now()
		if e.table, err = acasxval.BuildLogicTable(o.size.table); err != nil {
			return nil, nil, err
		}
		if err := w.setup(e); err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heapMB = append(heapMB, float64(ms.HeapInuse)/(1<<20))
	}
	fmt.Fprintf(log, "%s: set-up %.3f s (median of %d)\n", o.workload, median(setupS), len(setupS))
	sp.sample(o.size.calibrations)

	got, err := w.warmup(ctx)
	if err != nil {
		return nil, nil, err
	}
	sp.sample(o.size.calibrations)
	if o.seed == defaultSeed {
		golden, err := goldenDigests()
		if err != nil {
			return nil, nil, err
		}
		e.check.same("default-seed outputs against testdata/golden.json", got, golden[o.workload])
	}

	budget := o.seconds
	if o.trace {
		budget *= tracedUntraced
	}
	m, err := w.measure(ctx, seconds(budget), false)
	if err != nil {
		return nil, nil, err
	}
	sp.sample(o.size.calibrations)
	fmt.Fprintf(log, "%s: %d windows, %.1f episodes/s as measured, machine %.3fx the reference time\n",
		o.workload, len(m.windows), m.episodesPerS(), sp.factor())

	res = &result{Workload: o.workload, Seed: o.seed, Traced: o.trace, Outputs: got,
		Fingerprint: machineFingerprint(work, o.seconds)}
	res.Metrics = map[string]stat{
		"setup_s":            summarize(setupS),
		"heap_inuse_mb":      summarize(heapMB),
		"episodes_per_s":     m.rate(func(w window) float64 { return w.episodes }),
		"job_latency_p50_ms": m.latency(0.5),
	}
	switch w.(type) {
	case *searchWorkload:
		res.Metrics["enc_evals_per_s"] = m.rate(func(w window) float64 { return w.units })
	case *serveWorkload:
		res.Metrics["cells_per_s"] = m.rate(func(w window) float64 { return w.units })
		res.Metrics["job_latency_p90_ms"] = m.latency(0.9)
	}

	if o.trace {
		e.rec, e.traced = newRecorder(o.size.spanLimit), &probes{}
		if res.Layers, res.Attribution, err = traceRun(ctx, w, e, m, o); err != nil {
			return nil, nil, err
		}
		res.SelfTime = selfTimes(e.rec.complete())
	}

	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	res.Metrics["peak_rss_mb"] = single(rss)
	res.Attempted, res.Failed, res.Failures = e.check.attempted, e.check.failed, e.check.messages
	res.Correct = res.Failed == 0
	res.Metrics["failed_frac"] = single(float64(res.Failed) / float64(max(res.Attempted, 1)))
	res.Calibration = calibration{MedianMS: median(sp.ms), ReferenceMS: referenceCalibrationMS, Samples: len(sp.ms)}
	res.RawMetrics = map[string]stat{}
	for name, s := range res.Metrics {
		if d, ok := lookupMetric(name); ok && d.timed() {
			res.RawMetrics[name] = s
			res.Metrics[name] = atReference(s, d, sp.factor())
		}
	}
	if err := fillUnits(res.RawMetrics); err != nil {
		return nil, nil, err
	}
	if err := fillUnits(res.Metrics); err != nil {
		return nil, nil, err
	}
	if err := fillUnits(res.Layers); err != nil {
		return nil, nil, err
	}
	return res, e.rec, nil
}

// traceRun measures the traced slice of the workload with probed systems
// and job spans, then climbs the layer ladder on the workload's episodes.
func traceRun(ctx context.Context, w workload, e *env, untraced measurement, o options) (map[string]stat, []attribution, error) {
	tm, err := w.measure(ctx, seconds(o.seconds*tracedSlice), true)
	if err != nil {
		return nil, nil, err
	}
	layers := map[string]stat{}
	calls, ns := e.traced.netTotals(timerNS())
	layers["sim.decide_ns"] = single(ns / float64(max(calls, 1)))
	layers["sim.decide_calls_per_episode"] = single(float64(calls) / tm.simulated)
	layers["sim.decide_share"] = single(ns / (float64(tm.wall) * float64(runtime.GOMAXPROCS(0))))
	layers["trace.overhead_frac"] = single(1 - tm.episodesPerS()/untraced.episodesPerS())

	src := w.source()
	eps, err := capture(src, e.size.captureEpisodes)
	if err != nil {
		return nil, nil, err
	}
	l := &ladder{src: src, table: e.table, rec: e.rec, budget: seconds(o.seconds * tracedLadder), eps: eps}
	attr, err := l.run(ctx, layers)
	if err != nil {
		return nil, nil, err
	}
	if err := w.layers(ctx, layers); err != nil {
		return nil, nil, err
	}
	return layers, attr, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// fillUnits labels every metric with its catalogue unit.
func fillUnits(ms map[string]stat) error {
	for name, s := range ms {
		d, ok := lookupMetric(name)
		if !ok {
			return fmt.Errorf("metric %q is not in the catalogue", name)
		}
		s.Unit = d.unit
		ms[name] = s
	}
	return nil
}
