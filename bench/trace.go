package main

import (
	"sort"
	"sync"
	"time"

	"acasxval/internal/geom"
	"acasxval/internal/sim"
	"acasxval/internal/uav"
)

// span is one timed interval at a layer boundary. Spans of one job or
// episode share a trace id; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the traced run's spans in memory, up to limit; spans past
// the limit are dropped and their trace is marked incomplete, so self
// times are computed over complete traces only.
type recorder struct {
	epoch time.Time
	limit int

	mu      sync.Mutex
	nextID  int64
	spans   []span
	dropped map[int64]bool
}

func newRecorder(limit int) *recorder {
	return &recorder{epoch: time.Now(), limit: limit, dropped: map[int64]bool{}}
}

// id allocates a span id; a span's id is taken when it starts so its
// children can name it as their parent.
func (r *recorder) id() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// since converts a wall-clock instant to the recorder's timeline.
func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.limit {
		r.dropped[s.Trace] = true
		return
	}
	r.spans = append(r.spans, s)
}

// record adds a finished span with an id of its own.
func (r *recorder) record(name string, trace, parent int64, start, end time.Time) {
	r.add(span{ID: r.id(), Parent: parent, Trace: trace, Name: name, Start: r.since(start), End: r.since(end)})
}

// active is a span in progress. The zero value records nothing, so
// untraced code paths carry one for free.
type active struct {
	rec               *recorder
	name              string
	id, trace, parent int64
	start             time.Time
}

// root starts the first span of a new trace; a nil recorder returns the
// inert zero span.
func (r *recorder) root(name string) active {
	if r == nil {
		return active{}
	}
	id := r.id()
	return active{rec: r, name: name, id: id, trace: id, start: time.Now()}
}

func (a active) child(name string) active {
	if a.rec == nil {
		return active{}
	}
	return active{rec: a.rec, name: name, id: a.rec.id(), trace: a.trace, parent: a.id, start: time.Now()}
}

func (a active) end() {
	if a.rec != nil {
		a.rec.add(span{ID: a.id, Parent: a.parent, Trace: a.trace, Name: a.name, Start: a.rec.since(a.start), End: a.rec.since(time.Now())})
	}
}

// complete returns the spans of traces that lost no span to the limit.
func (r *recorder) complete() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if !r.dropped[s.Trace] {
			out = append(out, s)
		}
	}
	return out
}

// selfTime aggregates one layer's spans: their total duration and their
// self time, the part of each span no child span covers.
type selfTime struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes computes per-layer self time: a span's duration minus the
// union of its children's intervals clipped to it (children of one parent
// may overlap when they run on several goroutines).
func selfTimes(spans []span) []selfTime {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	agg := map[string]*selfTime{}
	for _, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			agg[s.Name] = a
		}
		dur := s.End - s.Start
		a.Spans++
		a.TotalMS += float64(dur) / 1e6
		a.SelfMS += float64(dur-covered(children[s.ID], s.Start, s.End)) / 1e6
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(intervals [][2]int64, lo, hi int64) int64 {
	iv := append([][2]int64(nil), intervals...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, in := range iv {
		a, b := max(in[0], cur), min(in[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// decideCall is one captured decision cycle: the inputs the engine handed
// a system and the decision it returned.
type decideCall struct {
	now    float64
	own    uav.State
	tracks []geom.Track
	c      sim.Constraint
	d      sim.Decision
}

// probes decorates the systems a factory hands out. Each probe times its
// system's decision cycles in situ and, when asked, records them as spans
// under the current parent or captures their inputs for the replay
// ladder. The engine consults the probe through sim.AvoidanceSystem, so
// the wrapped system sees exactly the calls it would see unwrapped.
type probes struct {
	rec     *recorder // nil: no spans
	capture bool

	mu   sync.Mutex
	list []*probe

	// trace/parent name the enclosing span for decide spans; set by a
	// single-goroutine caller between episodes.
	trace, parent int64
}

type probe struct {
	set   *probes
	sys   sim.System
	as    sim.AvoidanceSystem
	calls int64
	ns    int64
	log   []decideCall
}

var (
	_ sim.System          = (*probe)(nil)
	_ sim.AvoidanceSystem = (*probe)(nil)
)

// wrap returns a factory whose systems are probed.
func (ps *probes) wrap(factory func() (sim.System, sim.System)) func() (sim.System, sim.System) {
	return func() (sim.System, sim.System) {
		own, intr := factory()
		return ps.add(own), ps.add(intr)
	}
}

func (ps *probes) add(s sim.System) *probe {
	p := &probe{set: ps, sys: s, as: sim.Adapt(s)}
	ps.mu.Lock()
	ps.list = append(ps.list, p)
	ps.mu.Unlock()
	return p
}

// timerNS is what in-situ timing adds to each interval it measures: the
// median gap between two back-to-back clock reads. Probed decide times
// are reported net of it.
func timerNS() float64 {
	xs := make([]float64, 1001)
	for i := range xs {
		a := time.Now()
		xs[i] = float64(time.Since(a))
	}
	return median(xs)
}

// netTotals is totals with the clock-read cost taken out of every timed
// call.
func (ps *probes) netTotals(timer float64) (calls int64, ns float64) {
	calls, raw := ps.totals()
	return calls, float64(raw) - float64(calls)*timer
}

// totals sums the decision cycles and their time over every probe; call
// it after the probed work has returned.
func (ps *probes) totals() (calls, ns int64) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, p := range ps.list {
		calls += p.calls
		ns += p.ns
	}
	return calls, ns
}

// DecideTracks implements sim.AvoidanceSystem.
func (p *probe) DecideTracks(now float64, own uav.State, tracks []geom.Track, c sim.Constraint) sim.Decision {
	start := time.Now()
	d := p.as.DecideTracks(now, own, tracks, c)
	// time.Since reads only the monotonic clock, half the cost of Now.
	el := time.Since(start)
	p.calls++
	p.ns += int64(el)
	if p.set.rec != nil {
		p.set.rec.record("decide", p.set.trace, p.set.parent, start, start.Add(el))
	}
	if p.set.capture {
		p.log = append(p.log, decideCall{now: now, own: own, tracks: append([]geom.Track(nil), tracks...), c: c, d: d})
	}
	return d
}

// Decide implements sim.System for factories that need one; the engine
// never calls it on a system that implements sim.AvoidanceSystem.
func (p *probe) Decide(now float64, own uav.State, intrPos, intrVel geom.Vec3, c sim.Constraint) sim.Decision {
	return p.sys.Decide(now, own, intrPos, intrVel, c)
}

// Reset implements sim.System and sim.AvoidanceSystem.
func (p *probe) Reset() { p.sys.Reset() }
