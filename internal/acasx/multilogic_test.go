package acasx

import (
	"math"
	"testing"

	"acasxval/internal/geom"
	"acasxval/internal/uav"
)

// multiTestOwn is a level ownship heading +X used by the fusion tests.
func multiTestOwn() uav.State {
	return uav.State{
		Pos: geom.Vec3{X: 0, Y: 0, Z: 0},
		Vel: geom.Velocity{Gs: 45, Psi: 0, Vs: 0},
	}
}

// headOnTrack returns an intruder track closing head-on from range r with
// vertical offset z and vertical speed vs.
func headOnTrack(r, z, vs float64) geom.Track {
	return geom.Track{
		Pos: geom.Vec3{X: r, Y: 0, Z: z},
		Vel: geom.Vec3{X: -45, Y: 0, Z: vs},
	}
}

// TestDecideMultiSingleTrackMatchesDecide: the pairwise Decide is the
// one-track call of DecideMulti, so on separate executives the two entry
// points must agree decision by decision, including the advisory/alert state
// each executive carries. This guards Decide's packing of the intruder
// position and velocity into its one-track scratch.
func TestDecideMultiSingleTrackMatchesDecide(t *testing.T) {
	table := getCoarseTable(t)
	pair := NewLogic(table)
	multi := NewLogic(table)
	own := multiTestOwn()
	for step := 0; step < 40; step++ {
		r := 1800 - 45*2*float64(step) // closing head-on at 90 m/s
		tr := headOnTrack(r, 20, -1)
		want := pair.Decide(own, tr.Pos, tr.Vel, SenseMask{})
		got := multi.DecideMulti(own, []geom.Track{tr}, SenseMask{})
		if got != want {
			t.Fatalf("step %d: DecideMulti %+v != Decide %+v", step, got, want)
		}
	}
	if pair.alerts != multi.alerts || pair.Advisory() != multi.Advisory() ||
		pair.reversals != multi.reversals {
		t.Fatalf("state diverged: alerts %d/%d advisory %v/%v reversals %d/%d",
			pair.alerts, multi.alerts, pair.Advisory(), multi.Advisory(),
			pair.reversals, multi.reversals)
	}
}

// TestBeliefDecideMultiSingleTrackMatchesDecide mirrors the equivalence for
// the QMDP executive.
func TestBeliefDecideMultiSingleTrackMatchesDecide(t *testing.T) {
	table := getCoarseTable(t)
	pair, err := NewBeliefLogic(table, DefaultBeliefSigmas())
	if err != nil {
		t.Fatal(err)
	}
	multi, err := NewBeliefLogic(table, DefaultBeliefSigmas())
	if err != nil {
		t.Fatal(err)
	}
	own := multiTestOwn()
	for step := 0; step < 30; step++ {
		r := 1600 - 45*2*float64(step)
		tr := headOnTrack(r, -15, 1)
		want := pair.Decide(own, tr.Pos, tr.Vel, SenseMask{})
		got := multi.DecideMulti(own, []geom.Track{tr}, SenseMask{})
		if got != want {
			t.Fatalf("step %d: DecideMulti %+v != Decide %+v", step, got, want)
		}
	}
	if pair.alerts != multi.alerts || pair.Advisory() != multi.Advisory() {
		t.Fatalf("state diverged: alerts %d/%d advisory %v/%v",
			pair.alerts, multi.alerts, pair.Advisory(), multi.Advisory())
	}
}

// TestDecideMultiWorstCaseFusion: with two threats inside the horizon the
// fused choice must be the maximin advisory — argmax over actions of the
// minimum per-threat Q value.
func TestDecideMultiWorstCaseFusion(t *testing.T) {
	table := getCoarseTable(t)
	own := multiTestOwn()
	// A vertical sandwich: one threat just above and descending, one just
	// below and climbing, both close enough to be inside the horizon.
	tracks := []geom.Track{
		headOnTrack(700, 25, -2),
		headOnTrack(650, -25, 2),
	}

	// Expected fusion, computed from the public per-threat queries.
	var fused [NumAdvisories]float64
	for a := range fused {
		fused[a] = math.Inf(1)
	}
	ownVel := own.VelVec()
	threats := 0
	for _, tr := range tracks {
		h := tr.Pos.Z - own.Pos.Z
		tau := effectiveTau(&table.cfg, own.Pos, ownVel, tr.Pos, tr.Vel, h, ownVel.Z, tr.Vel.Z)
		if tau >= float64(table.Horizon()) {
			t.Fatalf("test geometry leaves threat outside the horizon (tau %v)", tau)
		}
		var q [NumAdvisories]float64
		table.AllQValues(&q, tau, h, ownVel.Z, tr.Vel.Z, COC)
		for a := range fused {
			if q[a] < fused[a] {
				fused[a] = q[a]
			}
		}
		threats++
	}
	want, ok := bestAllowed(&fused, SenseMask{})
	if !ok {
		t.Fatal("empty mask banned everything")
	}

	logic := NewLogic(table)
	got := logic.DecideMulti(own, tracks, SenseMask{})
	if got.Advisory != want {
		t.Fatalf("fused advisory %v, want maximin %v (fused Q %v)", got.Advisory, want, fused)
	}
	// The most urgent threat (closest, hence smallest tau) supplies Tau/H.
	if got.H != tracks[1].Pos.Z-own.Pos.Z {
		t.Fatalf("reported H %v does not match the most urgent threat", got.H)
	}
}

// TestDecideMultiHoldsUntilClearOfAll: an active advisory must not drop
// while any intruder is still converging, even if every threat has left the
// table horizon.
func TestDecideMultiHoldsUntilClearOfAll(t *testing.T) {
	table := getCoarseTable(t)
	logic := NewLogic(table)
	own := multiTestOwn()

	// Drive the executive into an alert with a close sandwich.
	in := []geom.Track{headOnTrack(500, 20, -2), headOnTrack(480, -20, 2)}
	d := logic.DecideMulti(own, in, SenseMask{})
	if !d.Alerting {
		t.Fatal("close sandwich did not alert")
	}

	// Both threats far away but still converging (head-on): hold.
	far := []geom.Track{headOnTrack(12000, 20, 0), headOnTrack(12500, -20, 0)}
	d = logic.DecideMulti(own, far, SenseMask{})
	if !d.Alerting {
		t.Fatal("advisory dropped while intruders still converging")
	}

	// Both diverging behind the ownship: clear of all, advisory ends.
	gone := []geom.Track{
		{Pos: geom.Vec3{X: -3000, Y: 0, Z: 20}, Vel: geom.Vec3{X: -45, Y: 0, Z: 0}},
		{Pos: geom.Vec3{X: -3200, Y: 0, Z: -20}, Vel: geom.Vec3{X: -45, Y: 0, Z: 0}},
	}
	d = logic.DecideMulti(own, gone, SenseMask{})
	if d.Alerting {
		t.Fatal("advisory held after every intruder cleared")
	}
}
