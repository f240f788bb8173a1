package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one entry of the metric catalogue. End-to-end metrics carry
// the bound by which they may worsen before a change counts as a regression
// (a share of the old value; 0 means any worsening counts). Driver metrics
// are the ones every workload reports and BENCHMARK.json lists.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
	driver bool
}

// endToEnd is what a user of the library or the service sees.
//
// The timing bounds are twice the run-to-run spread measured on the
// reference machine (a shared 2-vCPU VM whose per-run throughput moves
// by up to about 10 % between runs), so a regression must exceed the
// machine's own noise to count.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, true},
	{"episodes_per_s", "1/s", "higher", 0.20, true},
	{"job_latency_p50_ms", "ms", "lower", 0.20, true},
	{"peak_rss_mb", "MB", "lower", 0.10, true},
	{"heap_inuse_mb", "MB", "lower", 0.10, true},
	// Metrics only some workloads have, and the failure share (zero in
	// a passing run): recorded in the result file and gated by -compare,
	// but not in BENCHMARK.json, whose metrics every workload reports.
	// The p90 needs ten jobs beyond it, which only the served workload
	// has.
	{"job_latency_p90_ms", "ms", "lower", 0.20, false},
	{"enc_evals_per_s", "1/s", "higher", 0.20, false},
	{"cells_per_s", "1/s", "higher", 0.20, false},
	{"failed_frac", "fraction", "lower", 0, false},
}

// perLayer are the traced run's layer metrics. The driver ones are
// measured on every workload: the episode ladder runs on each workload's
// own episodes. The others exist only where their layer runs.
var perLayer = []metricDef{
	{"encounter.sample_ns", "ns", "lower", 0, true},
	{"interp.weights_ns", "ns", "lower", 0, true},
	{"acasx.query_ns", "ns", "lower", 0, true},
	{"acasx.queries_per_episode", "count", "lower", 0, true},
	{"acasx.decide_ns", "ns", "lower", 0, true},
	{"sim.decide_ns", "ns", "lower", 0, true},
	{"sim.decide_calls_per_episode", "count", "lower", 0, true},
	{"sim.decide_share", "fraction", "lower", 0, true},
	{"uav.step_ns", "ns", "lower", 0, true},
	{"uav.steps_per_episode", "count", "lower", 0, true},
	{"uav.observe_ns", "ns", "lower", 0, true},
	{"tracker.update_ns", "ns", "lower", 0, true},
	{"tracker.predict_ns", "ns", "lower", 0, true},
	{"fault.channel_step_ns", "ns", "lower", 0, true},
	{"fault.delay_push_ns", "ns", "lower", 0, true},
	{"sim.surveil_us_per_episode", "us", "lower", 0, true},
	{"sim.monitor_ns", "ns", "lower", 0, true},
	{"sim.monitor_obs_per_episode", "count", "lower", 0, true},
	{"sim.episode_us_p50", "us", "lower", 0, true},
	{"sim.episode_us_p99", "us", "lower", 0, true},
	{"sim.unattributed_frac", "fraction", "lower", 0, true},
	{"montecarlo.call_overhead_us", "us", "lower", 0, true},
	{"trace.overhead_frac", "fraction", "lower", 0, true},
	{"search.generation_ms", "ms", "lower", 0, false},
	{"search.archive_len", "count", "higher", 0, false},
	{"search.eval_share", "fraction", "higher", 0, false},
	{"campaign.cell_ms", "ms", "lower", 0, false},
	{"durable.append_us_p50", "us", "lower", 0, false},
	{"durable.append_us_p90", "us", "lower", 0, false},
	{"serve.submit_ms_p50", "ms", "lower", 0, false},
	{"serve.fresh_job_ms_p50", "ms", "lower", 0, false},
	{"serve.cached_job_ms_p50", "ms", "lower", 0, false},
	{"serve.journal_records_per_job", "count", "lower", 0, false},
	{"serve.http_rtt_us", "us", "lower", 0, false},
}

func lookupMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

// stat is one metric as recorded: the reported value with the quartiles
// of its per-window samples and the sample count behind them.
type stat struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	Unit  string  `json:"unit"`
	// Computed marks a value derived as count x replayed cost rather than
	// timed where the work happens.
	Computed bool `json:"computed,omitempty"`
}

// quantile returns the p-quantile of xs by linear interpolation between
// closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := math.Floor(h)
	i := int(lo)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-lo)*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// summarize reports the median of samples with its quartiles.
func summarize(samples []float64) stat {
	return stat{Value: median(samples), Q1: quantile(samples, 0.25), Q3: quantile(samples, 0.75), N: len(samples)}
}

// single wraps a value measured once.
func single(v float64) stat { return stat{Value: v, Q1: v, Q3: v, N: 1} }

// fingerprint identifies the machine and settings a result came from;
// -compare refuses to compare results whose fingerprints differ.
type fingerprint struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	OSArch     string  `json:"os_arch"`
	StateFS    string  `json:"state_fs"`
	Seconds    float64 `json:"seconds"`
}

func machineFingerprint(stateDir string, seconds float64) fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		StateFS:    filesystemType(stateDir),
		Seconds:    seconds,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// result is the record one run writes to <out>/<workload>.json.
type result struct {
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Traced      bool        `json:"traced"`
	Fingerprint fingerprint `json:"fingerprint"`
	Correct     bool        `json:"correct"`
	Attempted   int         `json:"attempted"`
	Failed      int         `json:"failed"`
	Failures    []string    `json:"failures,omitempty"`
	Outputs     digest      `json:"outputs"`
	// Metrics are reported at the reference machine speed (see speed.go);
	// RawMetrics keeps the timed ones as measured, and Calibration the
	// run's machine speed.
	Metrics     map[string]stat `json:"metrics"`
	RawMetrics  map[string]stat `json:"raw_metrics"`
	Calibration calibration     `json:"calibration"`
	Layers      map[string]stat `json:"layers,omitempty"`
	SelfTime    []selfTime      `json:"self_time,omitempty"`
	Attribution []attribution   `json:"attribution,omitempty"`
}

// attribution is one row of the per-episode time breakdown: where the
// reconciliation episode's time goes, layer by layer.
type attribution struct {
	Layer  string  `json:"layer"`
	US     float64 `json:"us_per_episode"`
	Share  float64 `json:"share"`
	Source string  `json:"source"`
}

// driverLine is the one-line summary printed last on standard output.
type driverLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]driverStat `json:"metrics"`
}

type driverStat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverSummary selects the driver metrics of r: the end-to-end ones for
// an untraced run, the per-layer ones for a traced run.
func driverSummary(r *result) driverLine {
	defs, have := endToEnd, r.Metrics
	if r.Traced {
		defs, have = perLayer, r.Layers
	}
	out := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverStat{}}
	for _, d := range defs {
		if s, ok := have[d.name]; ok && d.driver {
			out.Metrics[d.name] = driverStat{Value: s.Value, Unit: d.unit}
		}
	}
	return out
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// loadResults reads one result file, or every result file under a
// directory (one run per file, so repeated runs go in subdirectories),
// grouped by workload.
func loadResults(path string) (map[string][]*result, error) {
	var files []string
	err := filepath.WalkDir(path, func(f string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(f, ".json") && !strings.HasSuffix(f, ".trace.json") {
			files = append(files, f)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out := map[string][]*result{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s: not a cabench result", f)
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}

// verdict classifies one end-to-end metric between two results.
type verdict struct {
	Workload, Metric string
	Old, New         stat
	Change           float64 // signed share; positive is worse
	Bound            float64
	Status           string // ok, better, regressed, unresolved
}

// judge applies the metric's bound. A metric whose spread on either side
// is wider than its bound is unresolved: the runs cannot tell a change of
// that size from noise.
func judge(d metricDef, old, cur stat) verdict {
	v := verdict{Metric: d.name, Old: old, New: cur, Bound: d.bound}
	diff := cur.Value - old.Value
	if d.better == "higher" {
		diff = -diff
	}
	if old.Value != 0 {
		v.Change = diff / math.Abs(old.Value)
	} else if diff != 0 {
		v.Change = math.Copysign(math.Inf(1), diff)
	}
	switch {
	case d.bound == 0 && diff > 0:
		v.Status = "regressed"
	case d.bound == 0:
		v.Status = "ok"
	case spread(old) > d.bound || spread(cur) > d.bound:
		v.Status = "unresolved"
	case v.Change > d.bound:
		v.Status = "regressed"
	case v.Change < -d.bound:
		v.Status = "better"
	default:
		v.Status = "ok"
	}
	return v
}

// spread is the interquartile range as a share of the value.
func spread(s stat) float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Value)
}

// pooled is one side's view of a metric: a single run's value with its
// within-run quartiles, or over repeated runs the median of their values
// with the quartiles across runs.
func pooled(runs []*result, name string) (stat, bool) {
	var xs []float64
	for _, r := range runs {
		s, ok := r.Metrics[name]
		if !ok {
			return stat{}, false
		}
		xs = append(xs, s.Value)
	}
	if len(runs) == 1 {
		return runs[0].Metrics[name], true
	}
	return summarize(xs), true
}

// compareResults judges every end-to-end metric both sides report. It
// refuses results from different machines or settings.
func compareResults(old, cur map[string][]*result) ([]verdict, error) {
	var names []string
	for w := range cur {
		if _, ok := old[w]; ok {
			names = append(names, w)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no workload appears on both sides")
	}
	sort.Strings(names)
	var out []verdict
	for _, w := range names {
		o, c := old[w], cur[w]
		for _, r := range append(o[1:], c...) {
			if r.Fingerprint != o[0].Fingerprint {
				return nil, fmt.Errorf("%s: fingerprints differ (%+v, %+v); results from different machines or settings are not comparable",
					w, o[0].Fingerprint, r.Fingerprint)
			}
		}
		for _, d := range endToEnd {
			ov, ok1 := pooled(o, d.name)
			cv, ok2 := pooled(c, d.name)
			if !ok1 || !ok2 {
				continue
			}
			v := judge(d, ov, cv)
			v.Workload = w
			out = append(out, v)
		}
	}
	return out, nil
}

func printVerdicts(w io.Writer, vs []verdict) {
	fmt.Fprintf(w, "%-18s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "worse", "bound", "verdict")
	for _, v := range vs {
		fmt.Fprintf(w, "%-18s %-20s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
			v.Workload, v.Metric, v.Old.Value, v.New.Value, 100*v.Change, 100*v.Bound, v.Status)
	}
}
