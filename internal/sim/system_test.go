package sim

import (
	"reflect"
	"testing"

	"acasxval/internal/acasx"
	"acasxval/internal/encounter"
	"acasxval/internal/geom"
	"acasxval/internal/uav"
)

// evader is a minimal pairwise-only test system: it climbs whenever the
// intruder is within range. It deliberately does NOT implement
// AvoidanceSystem, so it exercises the Adapt wrapper and the nearest-threat
// fallback.
type evader struct {
	rangeM   float64
	alerting bool
	// lastIntr records the track the system was asked to resolve, so tests
	// can assert the adapter's nearest-threat selection.
	lastIntr geom.Vec3
}

func (e *evader) Decide(_ float64, own uav.State, intrPos, _ geom.Vec3, c Constraint) Decision {
	e.lastIntr = intrPos
	if own.Pos.DistanceSquaredTo(intrPos) > e.rangeM*e.rangeM {
		e.alerting = false
		return Decision{}
	}
	newAlert := !e.alerting
	e.alerting = true
	vs := 7.0
	sense := SenseUp
	if c.BanUp {
		vs, sense = -7.0, SenseDown
	}
	return Decision{
		Cmd:      uav.Command{HasVS: true, TargetVS: vs},
		HasCmd:   true,
		Alerting: true,
		NewAlert: newAlert,
		Sense:    sense,
	}
}

func (e *evader) Reset() { e.alerting = false; e.lastIntr = geom.Vec3{} }

// TestAdaptPassesThroughAvoidanceSystems: systems already speaking the
// multi-track contract must come back unchanged (no adapter indirection).
func TestAdaptPassesThroughAvoidanceSystems(t *testing.T) {
	s := NoSystem{}
	if got := Adapt(s); got != AvoidanceSystem(s) {
		t.Errorf("Adapt(NoSystem) = %T, want the system itself", got)
	}
	table := getTable(t)
	ax := NewACASXU(table)
	if got := Adapt(ax); got != AvoidanceSystem(ax) {
		t.Errorf("Adapt(*ACASXU) = %T, want the system itself", got)
	}
}

// TestAdaptSingleTrackMatchesDecide: one track through the adapter must be
// exactly the pairwise Decide call.
func TestAdaptSingleTrackMatchesDecide(t *testing.T) {
	mk := func() *evader { return &evader{rangeM: 1000} }
	own := uav.State{Pos: geom.Vec3{Z: 500}, Vel: geom.Velocity{Gs: 30}}
	track := geom.Track{Pos: geom.Vec3{X: 400, Z: 500}, Vel: geom.Vec3{X: -30}}

	direct := mk()
	want := direct.Decide(3, own, track.Pos, track.Vel, Constraint{})
	adapted := Adapt(mk())
	got := adapted.DecideTracks(3, own, []geom.Track{track}, Constraint{})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("adapted single-track decision %+v, want %+v", got, want)
	}
}

// TestAdaptNearestThreatFallback: a pairwise-only system facing several
// tracks must be handed the nearest one.
func TestAdaptNearestThreatFallback(t *testing.T) {
	e := &evader{rangeM: 1000}
	own := uav.State{Pos: geom.Vec3{}, Vel: geom.Velocity{Gs: 30}}
	far := geom.Track{Pos: geom.Vec3{X: 900}}
	near := geom.Track{Pos: geom.Vec3{X: 300}}
	Adapt(e).DecideTracks(0, own, []geom.Track{far, near}, Constraint{})
	if e.lastIntr != near.Pos {
		t.Errorf("adapter resolved against %v, want nearest %v", e.lastIntr, near.Pos)
	}
}

// TestAdaptedRunIdentity: equipping the runner with an explicitly adapted
// pairwise system must reproduce the plain run byte for byte — the adapter
// is the engine's own dispatch, factored out.
func TestAdaptedRunIdentity(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.RecordTrajectory = true
	for _, seed := range []uint64{1, 42} {
		p := encounter.PresetHeadOn()
		want, err := RunEncounter(p, &evader{rangeM: 2000}, &evader{rangeM: 2000}, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunEncounter(p,
			Adapt(&evader{rangeM: 2000}).(System), Adapt(&evader{rangeM: 2000}).(System), cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: adapted run differs from plain run", seed)
		}
	}
}

// TestAdaptedMultiRunIdentity: the pre-adapted and plain forms of a
// pairwise system must agree on multi-intruder encounters too — the
// nearest-threat fallback lives in exactly one place.
func TestAdaptedMultiRunIdentity(t *testing.T) {
	m := encounter.MultiPresetConvergingPair()
	k := m.NumIntruders()
	mk := func(adapted bool) []System {
		out := make([]System, k+1)
		for i := range out {
			if adapted {
				out[i] = Adapt(&evader{rangeM: 2000}).(System)
			} else {
				out[i] = &evader{rangeM: 2000}
			}
		}
		return out
	}
	cfg := DefaultRunConfig()
	cfg.RecordTrajectory = true
	want, err := RunMultiEncounter(m, mk(false), cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunMultiEncounter(m, mk(true), cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("adapted multi run differs from plain run")
	}
}

// TestRunnerAdapterZeroAlloc: resetting and re-running a pairwise-only
// system through the runner's embedded adapter must not allocate in steady
// state — the adapter is part of the aircraft slot, not a per-run wrapper.
func TestRunnerAdapterZeroAlloc(t *testing.T) {
	cfg := DefaultRunConfig()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := encounter.PresetCrossing()
	own, intr := &evader{rangeM: 2000}, &evader{rangeM: 2000}
	if _, err := r.Run(p, own, intr, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Run(p, own, intr, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state adapted run allocates %.1f times per episode, want 0", allocs)
	}
}

// TestNoSystemDecideTracks: the unequipped baseline stays silent on the
// multi-track contract too.
func TestNoSystemDecideTracks(t *testing.T) {
	d := NoSystem{}.DecideTracks(0, uav.State{}, []geom.Track{{Pos: geom.Vec3{X: 1}}}, Constraint{})
	if !reflect.DeepEqual(d, Decision{}) {
		t.Errorf("NoSystem.DecideTracks = %+v, want zero decision", d)
	}
}

// TestACASXUDecideTracksMatchesDispatch: the native multi-track step of the
// table executive must agree with the historical dispatch — Decide for one
// track, the executive's own fusion (acasx.Logic.DecideMulti) for several.
func TestACASXUDecideTracksMatchesDispatch(t *testing.T) {
	table := getTable(t)
	own := uav.State{Pos: geom.Vec3{Z: 300}, Vel: geom.Velocity{Gs: 30}}
	tracks := []geom.Track{
		{Pos: geom.Vec3{X: 600, Z: 310}, Vel: geom.Vec3{X: -28}},
		{Pos: geom.Vec3{X: -900, Z: 280}, Vel: geom.Vec3{X: 25}},
	}
	for _, n := range []int{1, 2} {
		a := NewACASXU(table)
		got := a.DecideTracks(0, own, tracks[:n], Constraint{})
		var want Decision
		if n == 1 {
			want = NewACASXU(table).Decide(0, own, tracks[0].Pos, tracks[0].Vel, Constraint{})
		} else {
			want = fromACASDecision(acasx.NewLogic(table).DecideMulti(own, tracks[:n], acasx.SenseMask{}))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: DecideTracks %+v, want %+v", n, got, want)
		}
	}
}
