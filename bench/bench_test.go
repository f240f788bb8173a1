package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"acasxval"
)

// TestWorkloadsSmoke runs every workload end to end at smoke size, traced,
// and checks that it reports every driver metric and that every job
// reproduced the warm-up's outputs.
func TestWorkloadsSmoke(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			opts := options{workload: def.name, seed: 7, trace: true, out: t.TempDir(), size: smokeSizes()}
			r, rec, err := runWorkload(context.Background(), opts, testWriter{t})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 {
				t.Fatalf("failures: %v", r.Failures)
			}
			if r.Outputs == (digest{}) {
				t.Fatal("no outputs recorded")
			}
			for _, d := range endToEnd {
				if _, ok := r.Metrics[d.name]; d.driver && !ok {
					t.Errorf("end-to-end metric %s missing", d.name)
				}
			}
			for _, d := range perLayer {
				if _, ok := r.Layers[d.name]; d.driver && !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			if len(r.Attribution) == 0 || len(rec.complete()) == 0 {
				t.Error("traced run recorded no attribution or spans")
			}
			line := driverSummary(r)
			if len(line.Metrics) != countDriver(perLayer) {
				t.Errorf("traced summary has %d metrics, want the %d per-layer ones", len(line.Metrics), countDriver(perLayer))
			}
		})
	}
}

func countDriver(defs []metricDef) int {
	n := 0
	for _, d := range defs {
		if d.driver {
			n++
		}
	}
	return n
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

// TestDecideCallsMatchDuration validates the ladder's computed counts: on
// a fault-free episode every aircraft runs one decision cycle per cycle
// derived from Result.Duration and the decision period, and the probe
// must count exactly those.
func TestDecideCallsMatchDuration(t *testing.T) {
	size := smokeSizes()
	table, err := acasxval.BuildLogicTable(size.table)
	if err != nil {
		t.Fatal(err)
	}
	w := &mcWorkload{equipped: true}
	if err := w.setup(&env{seed: 3, size: size, table: table, check: &checks{}}); err != nil {
		t.Fatal(err)
	}
	eps, err := capture(w.source(), 20)
	if err != nil {
		t.Fatal(err)
	}
	for i, ep := range eps {
		calls := 0
		for _, seq := range ep.calls {
			calls += len(seq)
		}
		if want := len(ep.calls) * ep.cycles; calls != want || ep.cycles == 0 {
			t.Errorf("episode %d: probes counted %d decide calls, duration gives %d aircraft x %d cycles", i, calls, len(ep.calls), ep.cycles)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, Name: "job", Start: 0, End: 100},
		// Overlapping children (two workers) and one running past the
		// parent's end: the union inside [0, 100] is [10, 50] + [90, 100].
		{ID: 2, Parent: 1, Trace: 1, Name: "decide", Start: 10, End: 30},
		{ID: 3, Parent: 1, Trace: 1, Name: "decide", Start: 20, End: 50},
		{ID: 4, Parent: 1, Trace: 1, Name: "decide", Start: 90, End: 120},
		{ID: 5, Parent: 2, Trace: 1, Name: "query", Start: 15, End: 20},
	}
	got := map[string]selfTime{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	want := map[string]selfTime{
		"job":    {Name: "job", Spans: 1, TotalMS: 100e-6, SelfMS: 50e-6},
		"decide": {Name: "decide", Spans: 3, TotalMS: 80e-6, SelfMS: 75e-6},
		"query":  {Name: "query", Spans: 1, TotalMS: 5e-6, SelfMS: 5e-6},
	}
	for name, w := range want {
		g := got[name]
		if g.Spans != w.Spans || !near(g.TotalMS, w.TotalMS) || !near(g.SelfMS, w.SelfMS) {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
	rec := newRecorder(2)
	rec.add(span{ID: 1, Trace: 1})
	rec.add(span{ID: 2, Trace: 2})
	rec.add(span{ID: 3, Trace: 2})
	if c := rec.complete(); len(c) != 1 || c[0].Trace != 1 {
		t.Errorf("a trace that lost a span to the limit must drop out: %+v", c)
	}
}

func near(a, b float64) bool { return a-b < 1e-12 && b-a < 1e-12 }

func TestCompare(t *testing.T) {
	fp := fingerprint{CPUModel: "cpu", NProc: 2, GOMAXPROCS: 2, GoVersion: "go", StateFS: "ext4", Seconds: 20}
	run := func(eps, q1, q3, failed float64) *result {
		return &result{Workload: "w", Fingerprint: fp, Metrics: map[string]stat{
			"episodes_per_s": {Value: eps, Q1: q1, Q3: q3, N: 10},
			"failed_frac":    single(failed),
		}}
	}
	res := func(eps, q1, q3, failed float64) map[string][]*result {
		return map[string][]*result{"w": {run(eps, q1, q3, failed)}}
	}
	// Repeated runs pool to the median across runs and its quartiles,
	// whatever each run's own spread.
	runs := func(eps ...float64) map[string][]*result {
		out := map[string][]*result{}
		for _, e := range eps {
			out["w"] = append(out["w"], run(e, 0, 1e9, 0))
		}
		return out
	}
	cases := []struct {
		name     string
		old, cur map[string][]*result
		eps      string
		failed   string
	}{
		{"within bound", res(100, 99, 101, 0), res(95, 94, 96, 0), "ok", "ok"},
		{"regression", res(100, 99, 101, 0), res(75, 74, 76, 0.01), "regressed", "regressed"},
		{"better", res(100, 99, 101, 0), res(130, 129, 131, 0), "better", "ok"},
		{"spread wider than bound", res(100, 88, 112, 0), res(75, 74, 76, 0), "unresolved", "ok"},
		{"pooled runs", runs(100, 101, 99, 100), runs(70, 71, 69, 70), "regressed", "ok"},
		{"pooled runs spread", runs(100, 50, 150, 100), runs(70, 71, 69, 70), "unresolved", "ok"},
	}
	for _, c := range cases {
		vs, err := compareResults(c.old, c.cur)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for _, v := range vs {
			got[v.Metric] = v.Status
		}
		if got["episodes_per_s"] != c.eps || got["failed_frac"] != c.failed {
			t.Errorf("%s: got %v, want episodes_per_s %s, failed_frac %s", c.name, got, c.eps, c.failed)
		}
	}
	other := res(100, 99, 101, 0)
	other["w"][0].Fingerprint.NProc = 4
	if _, err := compareResults(res(100, 99, 101, 0), other); err == nil {
		t.Error("results from machines with different core counts must not compare")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// lists exactly the workloads and driver metrics this command reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, cabench %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%s), cabench %q (%s)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		var want []metricDef
		for _, d := range defs {
			if d.driver {
				want = append(want, d)
			}
		}
		if len(listed) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, cabench reports %d", kind, len(listed), len(want))
		}
		for i, m := range listed {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || (m.Bound != nil) != bounded || bounded && *m.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, cabench %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}
