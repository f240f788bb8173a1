package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"acasxval/internal/acasx"
	"acasxval/internal/encounter"
	"acasxval/internal/fault"
	"acasxval/internal/geom"
	"acasxval/internal/interp"
	"acasxval/internal/montecarlo"
	"acasxval/internal/sim"
	"acasxval/internal/stats"
	"acasxval/internal/tracker"
	"acasxval/internal/uav"
)

// episodeSource describes a workload's episodes to the layer ladder.
type episodeSource struct {
	run sim.RunConfig
	// factories equip the episodes; equipped[i] says whether factory i's
	// systems consult the logic table.
	factories []func() (sim.System, sim.System)
	equipped  []bool
	// model is what the workload samples once per episode.
	model montecarlo.MultiEncounterModel
	// parallelism and scratch are how the workload calls the Monte-Carlo
	// harness: its episode workers per estimate (0 = NumCPU) and whether
	// it reuses a Scratch across calls.
	parallelism int
	scratch     bool
	// draw returns episode i's encounter and the index of its factory.
	draw func(i int) (encounter.MultiParams, int)
	// seed derives the ladder's dynamics seeds.
	seed uint64
}

// episode is one captured episode: its encounter and every decision cycle
// each aircraft's system ran.
type episode struct {
	m        encounter.MultiParams
	factory  int
	seed     uint64         // the one-sample estimate seed that replays it
	calls    [][]decideCall // by aircraft: 0 the ownship, j intruder j
	steps    int
	cycles   int
	equipped bool
}

// dynamicsSeed mirrors the Monte-Carlo evaluator's per-episode dynamics
// seed for a one-sample estimate seeded s, so a ladder episode and the
// one-sample estimate of the same encounter simulate the same episode and
// their difference is the harness's call overhead alone.
func dynamicsSeed(s uint64) uint64 { return stats.DeriveSeed(s^0xABCD, 0) }

// steps is the number of integration steps an episode ran: Result.Duration
// is the clock after the last step.
func steps(res sim.Result, run sim.RunConfig) int { return int(math.Round(res.Duration / run.Dt)) }

// decisionCycles replays the runner's clock to count the decision cycles
// of an episode that ran n steps: a cycle runs at the first step whose
// clock reaches the next decision time.
func decisionCycles(n int, run sim.RunConfig) int {
	now, next, cycles := 0.0, 0.0, 0
	for s := 0; s < n; s++ {
		if now >= next {
			cycles++
			next += run.DecisionPeriod
		}
		now += run.Dt
	}
	return cycles
}

// capture runs n episodes with probed systems, keeping every decision
// cycle's inputs for replay.
func capture(src episodeSource, n int) ([]episode, error) {
	runner, err := sim.NewRunner(src.run)
	if err != nil {
		return nil, err
	}
	out := make([]episode, 0, n)
	for i := 0; i < n; i++ {
		m, fi := src.draw(i)
		ps := &probes{capture: true}
		systems := sim.AppendSystemsFromPair(nil, ps.wrap(src.factories[fi]), m.NumIntruders())
		seed := stats.DeriveSeed(src.seed^0x1ADDE5, i)
		res, err := runner.RunMulti(m, systems, dynamicsSeed(seed))
		if err != nil {
			return nil, err
		}
		ep := episode{m: m, factory: fi, seed: seed, equipped: src.equipped[fi], steps: steps(res, src.run)}
		ep.cycles = decisionCycles(ep.steps, src.run)
		for _, s := range systems {
			ep.calls = append(ep.calls, s.(*probe).log)
		}
		out = append(out, ep)
	}
	return out, nil
}

// sink keeps the compiler from discarding replayed results.
var sink float64

// rung is one layer's replay: pass performs ops operations of the layer's
// public entry point on captured inputs. The ladder times every rung once
// per round and keeps the per-round cost, so a slow stretch of the
// machine lands on every rung of that round alike.
type rung struct {
	name string
	ops  int
	pass func()
	ns   []float64 // ns per operation, one per round
}

func (r *rung) median() float64 { return median(r.ns) }

// ladder is the per-layer measurement of one workload: each layer's public
// entry point timed from outside on inputs captured from the workload's
// own episodes, and a reconciliation of those costs against the same
// episodes timed whole.
type ladder struct {
	src    episodeSource
	table  *acasx.Table
	rec    *recorder
	budget time.Duration // total time of the timed rounds
	eps    []episode

	// Filled by the timed rounds: every whole-episode time, and per round
	// the in-situ decide time per episode and the per-call overhead.
	episodeUS  []float64
	decideNS   []float64
	overheadNS []float64
	// err is the first error a timed pass met.
	err error
}

func (l *ladder) keep(err error) {
	if l.err == nil {
		l.err = err
	}
}

// minRounds is the least number of timed rounds, however small the
// budget.
const minRounds = 3

func (l *ladder) run(ctx context.Context, out map[string]stat) ([]attribution, error) {
	if err := l.verifyGrid(); err != nil {
		return nil, err
	}
	src := l.src
	var stepsPer, obsPer, monPer float64
	for _, ep := range l.eps {
		k := ep.m.NumIntruders()
		stepsPer += float64((k + 1) * ep.steps)
		obsPer += float64(2 * k * ep.cycles)
		monPer += float64(k * (1 + ep.steps*max(src.run.MonitorSubSteps, 1)))
	}
	n := float64(len(l.eps))
	stepsPer, obsPer, monPer = stepsPer/n, obsPer/n, monPer/n

	whole, err := l.episodes()
	if err != nil {
		return nil, err
	}
	inSitu, err := l.probedEpisodes()
	if err != nil {
		return nil, err
	}
	overhead, err := l.callOverhead(ctx)
	if err != nil {
		return nil, err
	}
	uavRung, traj, err := l.uav()
	if err != nil {
		return nil, err
	}
	chain, surveil, err := l.surveil()
	if err != nil {
		return nil, err
	}
	monitor := l.monitor(traj)
	decide, query, queriesPer := l.acasx()
	rungs := append([]*rung{whole, inSitu, overhead, uavRung, chain, monitor, decide, query, l.interp(), l.sample()}, surveil...)

	// Capture left garbage behind; collect it now so no background mark
	// phase overlaps the timed rounds.
	runtime.GC()
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < l.budget; round++ {
		if round == 1 {
			// Only the first round records episode and decide spans.
			l.rec = nil
		}
		for _, r := range rungs {
			t0 := time.Now()
			r.pass()
			r.ns = append(r.ns, float64(time.Since(t0))/float64(max(r.ops, 1)))
		}
		if err := cmp.Or(ctx.Err(), l.err); err != nil {
			return nil, err
		}
	}

	// Per round: the in-situ decide time and the replayed layers,
	// counted per episode, against the whole episode.
	var unattributed []float64
	for i := range whole.ns {
		layers := l.decideNS[i] + stepsPer*uavRung.ns[i] + obsPer*chain.ns[i] + monPer*monitor.ns[i]
		unattributed = append(unattributed, 1-layers/whole.ns[i])
	}
	for _, r := range rungs {
		if r.name != "" {
			out[r.name] = summarize(r.ns)
		}
	}
	out["acasx.queries_per_episode"] = single(queriesPer)
	out["uav.steps_per_episode"] = single(stepsPer)
	out["sim.monitor_obs_per_episode"] = single(monPer)
	out["sim.surveil_us_per_episode"] = computedStat(scaled(chain.ns, obsPer/1e3))
	out["sim.unattributed_frac"] = computedStat(unattributed)
	out["sim.episode_us_p50"] = withQuartiles(quantile(l.episodeUS, 0.5), l.episodeUS)
	out["sim.episode_us_p99"] = withQuartiles(quantile(l.episodeUS, 0.99), l.episodeUS)
	out["montecarlo.call_overhead_us"] = summarize(scaled(l.overheadNS, 1e-3))

	epUS := whole.median() / 1e3
	row := func(layer string, us float64, source string) attribution {
		return attribution{Layer: layer, US: us, Share: us / epUS, Source: source}
	}
	decUS := median(l.decideNS) / 1e3
	uavUS := stepsPer * uavRung.median() / 1e3
	survUS := obsPer * chain.median() / 1e3
	monUS := monPer * monitor.median() / 1e3
	const replayed = "computed (count x replayed cost)"
	return []attribution{
		row("decide (sim.AvoidanceSystem)", decUS, "timed in situ"),
		row(fmt.Sprintf("uav dynamics (%.0f steps)", stepsPer), uavUS, replayed),
		row(fmt.Sprintf("surveillance: sensor + fault + tracker (%.0f observations)", obsPer), survUS, replayed),
		row(fmt.Sprintf("monitors (%.0f observations)", monPer), monUS, replayed),
		row("unattributed", epUS-decUS-uavUS-survUS-monUS, "episode minus the rows above"),
		row("episode (sim.Runner.RunMulti)", epUS, "timed whole"),
	}, nil
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func computedStat(xs []float64) stat {
	s := summarize(xs)
	s.Computed = true
	return s
}

func withQuartiles(v float64, xs []float64) stat {
	s := summarize(xs)
	s.Value = v
	return s
}

// verifyGrid checks that the interpolation grid the ladder rebuilds from
// Table.Config().Grid is the table's own: interpolating the table's
// vertex values with the rebuilt weights must reproduce its queries.
func (l *ladder) verifyGrid() error {
	g := l.grid()
	rng := rand.New(rand.NewPCG(7, 7))
	cfg := l.table.Config().Grid
	var ws []interp.VertexWeight
	for i := 0; i < 64; i++ {
		pt := []float64{(2*rng.Float64() - 1) * cfg.HMax, (2*rng.Float64() - 1) * cfg.RateMax, (2*rng.Float64() - 1) * cfg.RateMax}
		tau := float64(rng.IntN(cfg.Horizon + 1))
		ws, _ = g.WeightsAppend(ws[:0], pt)
		want := l.table.QValue(tau, pt[0], pt[1], pt[2], acasx.COC, acasx.Climb1500)
		got := 0.0
		for _, w := range ws {
			v := g.Point(w.Flat)
			got += w.Weight * l.table.QValue(tau, v[0], v[1], v[2], acasx.COC, acasx.Climb1500)
		}
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			return fmt.Errorf("interpolation grid rebuilt from Table.Config().Grid does not match the table's (query %v: %v vs %v)", pt, got, want)
		}
	}
	return nil
}

func (l *ladder) grid() *interp.Grid {
	g := l.table.Config().Grid
	return interp.MustGrid(
		interp.Uniform(-g.HMax, g.HMax, g.NumH),
		interp.Uniform(-g.RateMax, g.RateMax, g.NumRate),
		interp.Uniform(-g.RateMax, g.RateMax, g.NumRate))
}

// systemsFor builds one system set per factory for the episodes' K,
// probed when ps is not nil.
func (l *ladder) systemsFor(ps *probes) [][]sim.System {
	out := make([][]sim.System, len(l.src.factories))
	for i, f := range l.src.factories {
		if ps != nil {
			f = ps.wrap(f)
		}
		out[i] = sim.AppendSystemsFromPair(nil, f, l.eps[0].m.NumIntruders())
	}
	return out
}

// episodes times the captured episodes whole through sim.Runner.RunMulti,
// one by one, with plain systems: ns per episode.
func (l *ladder) episodes() (*rung, error) {
	runner, err := sim.NewRunner(l.src.run)
	if err != nil {
		return nil, err
	}
	systems := l.systemsFor(nil)
	r := &rung{ops: len(l.eps)}
	r.pass = func() {
		for _, ep := range l.eps {
			t0 := time.Now()
			_, err := runner.RunMulti(ep.m, systems[ep.factory], dynamicsSeed(ep.seed))
			l.keep(err)
			l.episodeUS = append(l.episodeUS, float64(time.Since(t0))/1e3)
		}
	}
	return r, nil
}

// probedEpisodes runs the captured episodes through probed systems: the
// in-situ decide time per episode, one value per round, and in the first
// round the episode and decide spans.
func (l *ladder) probedEpisodes() (*rung, error) {
	runner, err := sim.NewRunner(l.src.run)
	if err != nil {
		return nil, err
	}
	ps := &probes{}
	systems := l.systemsFor(ps)
	timer := timerNS()
	r := &rung{ops: len(l.eps)}
	r.pass = func() {
		ps.rec = l.rec
		_, before := ps.netTotals(timer)
		for _, ep := range l.eps {
			span := l.rec.root("episode")
			ps.trace, ps.parent = span.trace, span.id
			_, err := runner.RunMulti(ep.m, systems[ep.factory], dynamicsSeed(ep.seed))
			l.keep(err)
			span.end()
		}
		_, after := ps.netTotals(timer)
		l.decideNS = append(l.decideNS, (after-before)/float64(len(l.eps)))
	}
	return r, nil
}

// callOverhead runs each captured episode as a one-sample estimate
// through the Monte-Carlo harness, called the way the workload calls it,
// and back to back with it the same episode whole through the runner; the
// difference, per episode and round, is the harness's per-call overhead.
// Back-to-back pairs keep the machine's drift out of the difference.
func (l *ladder) callOverhead(ctx context.Context) (*rung, error) {
	var scratch *montecarlo.Scratch
	if l.src.scratch {
		scratch = &montecarlo.Scratch{}
	}
	runner, err := sim.NewRunner(l.src.run)
	if err != nil {
		return nil, err
	}
	systems := l.systemsFor(nil)
	models := make([]montecarlo.MultiEncounterModel, len(l.eps))
	for i, ep := range l.eps {
		models[i] = montecarlo.MultiPointModel(ep.m)
	}
	r := &rung{ops: len(l.eps)}
	r.pass = func() {
		var diff time.Duration
		for i, ep := range l.eps {
			cfg := montecarlo.Config{Samples: 1, Run: l.src.run, Seed: ep.seed, Parallelism: l.src.parallelism}
			estimate := func() time.Duration {
				t0 := time.Now()
				_, err := montecarlo.EvaluateMultiWithScratchContext(ctx, models[i], l.src.factories[ep.factory], cfg, scratch)
				l.keep(err)
				return time.Since(t0)
			}
			whole := func() time.Duration {
				t0 := time.Now()
				_, err := runner.RunMulti(ep.m, systems[ep.factory], dynamicsSeed(ep.seed))
				l.keep(err)
				return time.Since(t0)
			}
			// Alternate which runs first, so the second's warmer caches
			// favour neither side.
			if i%2 == 0 {
				diff += estimate() - whole()
			} else {
				diff -= whole() - estimate()
			}
		}
		l.overheadNS = append(l.overheadNS, float64(diff)/float64(len(l.eps)))
	}
	// One untimed pass surfaces a configuration error before the rounds.
	r.pass()
	l.overheadNS = l.overheadNS[:0]
	return r, l.err
}

// uav replays every aircraft's flight: the captured commands applied at
// their decision times and, per integration step, the position read the
// runner takes before stepping and one Step. It also returns every
// replayed trajectory (by episode, aircraft, step) for the monitor rung.
func (l *ladder) uav() (*rung, [][][]geom.Vec3, error) {
	run := l.src.run
	var own, intr uav.UAV
	if err := own.Init(run.OwnUAV, uav.State{}); err != nil {
		return nil, nil, err
	}
	if err := intr.Init(run.IntruderUAV, uav.State{}); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewPCG(3, 3))
	traj := make([][][]geom.Vec3, len(l.eps))
	fly := func(record bool) {
		for e, ep := range l.eps {
			for a, seq := range ep.calls {
				v := &own
				v.Reset(encounter.OwnInitialState(ep.m.Intruders[0]))
				if a > 0 {
					v = &intr
					v.Reset(encounter.IntruderInitialState(ep.m.Intruders[a-1]))
				}
				ci := 0
				for s := 0; s < ep.steps; s++ {
					t := float64(s) * run.Dt
					for ci < len(seq) && seq[ci].now <= t+run.Dt/2 {
						if d := seq[ci].d; d.HasCmd {
							v.Command(d.Cmd)
						} else {
							v.ClearCommand()
						}
						ci++
					}
					pos := v.State().Pos
					if record {
						traj[e][a] = append(traj[e][a], pos)
					}
					v.Step(run.Dt, rng)
				}
				if record {
					traj[e][a] = append(traj[e][a], v.State().Pos)
				}
			}
		}
	}
	total := 0
	for e, ep := range l.eps {
		total += len(ep.calls) * ep.steps
		traj[e] = make([][]geom.Vec3, len(ep.calls))
	}
	fly(true)
	return &rung{name: "uav.step_ns", ops: total, pass: func() { fly(false) }}, traj, nil
}

// monitor replays the runner's monitor sampling on the replayed
// trajectories: per step, each aircraft's end position, then per
// sub-step the interpolated ownship and intruder positions, the pair
// distances computed once, and both monitors fed. ns per observation.
func (l *ladder) monitor(traj [][][]geom.Vec3) *rung {
	subSteps := max(l.src.run.MonitorSubSteps, 1)
	dt := l.src.run.Dt
	var prox sim.ProximityMeasurer
	var acc sim.AccidentDetector
	observe := func(now float64, a, b geom.Vec3) {
		d2h := a.HorizontalDistanceSquaredTo(b)
		dv := a.VerticalDistanceTo(b)
		prox.ObserveSq(now, d2h, dv, d2h+dv*dv)
		acc.ObserveSq(now, d2h, dv)
	}
	obs, aircraft := 0, 0
	for _, ep := range traj {
		obs += (len(ep) - 1) * (1 + (len(ep[0])-1)*subSteps)
		aircraft = max(aircraft, len(ep))
	}
	after := make([]geom.Vec3, aircraft)
	return &rung{name: "sim.monitor_ns", ops: obs, pass: func() {
		for _, ep := range traj {
			prox.Reset()
			acc.Reset()
			for j := 1; j < len(ep); j++ {
				observe(0, ep[0][0], ep[j][0])
			}
			for s := 0; s+1 < len(ep[0]); s++ {
				for a := range ep {
					after[a] = ep[a][s+1]
				}
				for i := 1; i <= subSteps; i++ {
					f := float64(i) / float64(subSteps)
					t := float64(s)*dt + f*dt
					ownAt := ep[0][s].Lerp(after[0], f)
					for j := 1; j < len(ep); j++ {
						observe(t, ownAt, ep[j][s].Lerp(after[j], f))
					}
				}
			}
			sink += prox.MinVertical()
		}
	}}
}

// maxLinks bounds the surveillance links one aircraft replays: the
// ownship tracks one per intruder.
const maxLinks = 8

// surveil returns the surveillance chain as the runner composes it per
// observation (sensor, the workload's fault layer when it has one, then
// the tracker updating on a delivered report and predicting on a lost
// one), and the rungs of its layers one by one. Workloads without faults
// time the fault layers under the moderate preset as witnesses.
func (l *ladder) surveil() (*rung, []*rung, error) {
	run := l.src.run
	rng := rand.New(rand.NewPCG(5, 5))
	type obs struct {
		st   uav.State
		tr   geom.Track
		now  float64
		link int
		new  bool // first observation of its link in the episode
	}
	var list []obs
	for _, ep := range l.eps {
		for _, seq := range ep.calls {
			var seen [maxLinks]bool
			for _, c := range seq {
				for j, t := range c.tracks[:min(len(c.tracks), maxLinks)] {
					list = append(list, obs{c.own, t, c.now, j, !seen[j]})
					seen[j] = true
				}
			}
		}
	}
	var trackers [maxLinks]tracker.Tracker
	for i := range trackers {
		if err := trackers[i].Init(run.Tracker); err != nil {
			return nil, nil, err
		}
	}

	observe := &rung{name: "uav.observe_ns", ops: len(list), pass: func() {
		for _, o := range list {
			sink += run.Sensor.Observe(o.st, o.now, rng).Pos.X
		}
	}}
	update := func(record bool, snaps *[]tracker.Tracker) {
		for _, o := range list {
			tk := &trackers[o.link]
			if o.new {
				tk.Reset()
			}
			sink += tk.Update(o.tr.Pos, o.tr.Vel, o.now).Pos.X
			if record {
				*snaps = append(*snaps, *tk)
			}
		}
	}
	var snaps []tracker.Tracker
	update(true, &snaps)
	updates := &rung{name: "tracker.update_ns", ops: len(list), pass: func() { update(false, nil) }}
	predicts := &rung{name: "tracker.predict_ns", ops: len(snaps), pass: func() {
		for i := range snaps {
			tk := snaps[i]
			sink += tk.Predict(list[i].now + run.DecisionPeriod).Pos.X
		}
	}}

	witness := run.Faults
	if !witness.Enabled() {
		witness, _ = fault.Preset("moderate")
	}
	var ch fault.Channel
	channel := &rung{name: "fault.channel_step_ns", ops: len(list), pass: func() {
		for range list {
			if ch.Step(witness, rng) {
				sink++
			}
		}
	}}
	var dl fault.DelayLine
	dl.Init(max(witness.Latency, 1))
	reports := make([]uav.ADSBReport, len(list))
	for i, o := range list {
		reports[i] = run.Sensor.Observe(o.st, o.now, rng)
	}
	delay := &rung{name: "fault.delay_push_ns", ops: len(reports), pass: func() {
		for _, r := range reports {
			got, _ := dl.Push(r)
			sink += got.Time
		}
	}}

	faults := run.Faults
	latency := float64(faults.Latency) * run.DecisionPeriod
	var chans [maxLinks]fault.Channel
	var delays [maxLinks]fault.DelayLine
	chain := &rung{ops: len(list), pass: func() {
		for _, o := range list {
			tk := &trackers[o.link]
			if o.new {
				tk.Reset()
				chans[o.link].Reset()
				delays[o.link].Init(faults.Latency)
			}
			rep := run.Sensor.Observe(o.st, o.now, rng)
			trackNow := o.now
			if faults.Enabled() {
				if faults.BurstEnabled() && chans[o.link].Step(faults, rng) {
					rep.Valid = false
				}
				if faults.DetectionRange > 0 && o.st.Pos.DistanceSquaredTo(o.tr.Pos) > faults.DetectionRange*faults.DetectionRange {
					rep.Valid = false
				}
				if faults.Latency > 0 {
					got, ok := delays[o.link].Push(rep)
					got.Valid = got.Valid && ok
					rep = got
				}
				trackNow -= latency
			}
			if rep.Valid {
				sink += tk.Update(rep.Pos, rep.Vel, rep.Time).Pos.X
			} else {
				sink += tk.Predict(trackNow).Pos.X
			}
		}
	}}
	return chain, []*rung{observe, updates, predicts, channel, delay}, nil
}

// query is one logic-table query of a replayed decision cycle.
type query struct {
	tau, h, dh0, dh1 float64
	ra               acasx.Advisory
}

// acasx replays the ACAS XU executive over every captured decision cycle
// (whatever the workload equipped, so the unequipped workload reports the
// same rungs as witnesses) and its table queries. Each track's tau and h
// come from a single-track Decide; the prior advisory is the replayed
// executive's. It also returns the queries per episode the workload's
// own equipped systems issue.
func (l *ladder) acasx() (decide, q *rung, queriesPerEpisode float64) {
	logic, scratch := acasx.NewLogic(l.table), acasx.NewLogic(l.table)
	horizon := float64(l.table.Horizon())
	var qs []query
	equipped, calls := 0, 0
	replay := func(record bool) {
		for _, ep := range l.eps {
			for _, seq := range ep.calls {
				logic.Reset()
				for i := range seq {
					c := &seq[i]
					mask := acasx.SenseMask{BanUp: c.c.BanUp, BanDown: c.c.BanDown}
					if record {
						prior := logic.Advisory()
						for _, t := range c.tracks {
							scratch.Reset()
							d := scratch.Decide(c.own, t.Pos, t.Vel, mask)
							if d.Tau < horizon {
								qs = append(qs, query{d.Tau, d.H, c.own.VelVec().Z, t.Vel.Z, prior})
								if ep.equipped {
									equipped++
								}
							}
						}
						calls++
					}
					var d acasx.Decision
					if len(c.tracks) == 1 {
						d = logic.Decide(c.own, c.tracks[0].Pos, c.tracks[0].Vel, mask)
					} else {
						d = logic.DecideMulti(c.own, c.tracks, mask)
					}
					sink += d.Tau
				}
			}
		}
	}
	replay(true)
	var dst [acasx.NumAdvisories]float64
	decide = &rung{name: "acasx.decide_ns", ops: calls, pass: func() { replay(false) }}
	q = &rung{name: "acasx.query_ns", ops: len(qs), pass: func() {
		for _, q := range qs {
			l.table.AllQValues(&dst, q.tau, q.h, q.dh0, q.dh1, q.ra)
		}
		sink += dst[0]
	}}
	return decide, q, float64(equipped) / float64(len(l.eps))
}

// interp times the interpolation weights of every captured (h, dh0, dh1)
// point.
func (l *ladder) interp() *rung {
	g := l.grid()
	var pts [][]float64
	for _, ep := range l.eps {
		for _, seq := range ep.calls {
			for _, c := range seq {
				for _, t := range c.tracks {
					pts = append(pts, []float64{t.Pos.Z - c.own.Pos.Z, c.own.VelVec().Z, t.Vel.Z})
				}
			}
		}
	}
	var ws []interp.VertexWeight
	return &rung{name: "interp.weights_ns", ops: len(pts), pass: func() {
		for _, p := range pts {
			ws, _ = g.WeightsAppend(ws[:0], p)
		}
		sink += float64(len(ws))
	}}
}

// sample times the workload's encounter model: one draw per episode,
// with the evaluator's per-episode reseed.
func (l *ladder) sample() *rung {
	const n = 512
	model := l.src.model
	var rr stats.ReseedableRNG
	var buf [encounter.NumParams]float64
	dst := make([]encounter.Params, model.NumIntruders())
	return &rung{name: "encounter.sample_ns", ops: n, pass: func() {
		for i := 0; i < n; i++ {
			m := model.SampleInto(rr.SeedChild(1, i), &buf, dst)
			sink += m.Intruders[0].TimeToCPA
		}
	}}
}
