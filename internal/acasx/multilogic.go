package acasx

import (
	"math"

	"acasxval/internal/geom"
	"acasxval/internal/uav"
)

// Multi-threat resolution: the executives below generalize the pairwise
// Decide cycle to K simultaneous intruders. Each threat inside the
// optimization horizon is queried against the logic table independently
// (the table itself stays pairwise — it was optimized for one intruder),
// and the per-threat action values fuse worst-case-first: an advisory's
// fused value is its minimum value across the threats, and the executive
// picks the advisory whose worst case is best. The most restrictive
// constraint therefore dominates — an advisory that resolves two threats
// but flies into a third is vetoed by the third's value — which is the
// "most-restrictive-first" fusion rule of layered multi-threat logics.
//
// A single-track call delegates to the pairwise Decide, so K = 1 is
// bit-identical to the classic executive by construction.

// bestAllowed returns the advisory maximizing q among those the mask
// allows, scanning in advisory order (first maximum wins). The boolean is
// false when the mask bans every action.
func bestAllowed(q *[NumAdvisories]float64, mask SenseMask) (Advisory, bool) {
	best := COC
	bestQ := math.Inf(-1)
	found := false
	for a := COC; a < NumAdvisories; a++ {
		if !mask.Allows(a) {
			continue
		}
		if q[a] > bestQ {
			bestQ = q[a]
			best = a
			found = true
		}
	}
	return best, found
}

// clearOfAll reports whether every tracked intruder is horizontally
// diverging and outside the conflict radius — the multi-threat condition
// for discontinuing an active advisory.
func clearOfAll(ownPos, ownVel geom.Vec3, tracks []geom.Track, dmod float64) bool {
	for _, tr := range tracks {
		if !clearOfConflict(ownPos, ownVel, tr.Pos, tr.Vel, dmod) {
			return false
		}
	}
	return true
}

// multiCycle is the shared multi-threat decision cycle of both executives:
// scan every track, fuse the in-horizon action values worst-case-first
// (query fills q with one threat's values), apply the clear-of-conflict
// hold hysteresis, and assemble the Decision against prev. The caller owns
// its advisory state and counters, and supplies q — a persistent scratch
// buffer, because a stack array crossing the indirect query call would
// escape and allocate every cycle. query is called with the per-threat
// (tau, h, intruder vertical speed); it must not retain q.
func multiCycle(table *Table, prev Advisory, own uav.State, ownVel geom.Vec3, tracks []geom.Track, mask SenseMask,
	q *[NumAdvisories]float64, query func(q *[NumAdvisories]float64, tau, h, intrVS float64)) Decision {
	var fused [NumAdvisories]float64
	threats := 0
	minTau, minH := math.Inf(1), 0.0
	horizon := float64(table.Horizon())
	for _, tr := range tracks {
		h := tr.Pos.Z - own.Pos.Z
		tau := effectiveTau(&table.cfg, own.Pos, ownVel, tr.Pos, tr.Vel, h, ownVel.Z, tr.Vel.Z)
		if tau < minTau {
			minTau, minH = tau, h
		}
		if tau >= horizon {
			continue
		}
		query(q, tau, h, tr.Vel.Z)
		if threats == 0 {
			fused = *q
		} else {
			for a := range fused {
				if q[a] < fused[a] {
					fused[a] = q[a]
				}
			}
		}
		threats++
	}

	var next Advisory
	if threats == 0 {
		// No threat inside the horizon: hold an active advisory until the
		// traffic is genuinely clear, as the pairwise executives do.
		if prev != COC && !clearOfAll(own.Pos, ownVel, tracks, table.cfg.DMOD) {
			next = prev
		} else {
			next = COC
		}
	} else {
		best, ok := bestAllowed(&fused, mask)
		if !ok {
			best = COC
		}
		if best == COC && prev != COC && !clearOfAll(own.Pos, ownVel, tracks, table.cfg.DMOD) {
			// The fused values propose terminating the advisory, but some
			// intruder is still converging: hold, mirroring the pairwise
			// clear-of-conflict hysteresis.
			best = prev
		}
		next = best
	}

	d := Decision{
		Advisory: next,
		Tau:      minTau,
		H:        minH,
		Alerting: next != COC,
	}
	if prev == COC && next != COC {
		d.NewAlert = true
	}
	if prev.Sense() != SenseNone && next.Sense() != SenseNone && prev.Sense() != next.Sense() {
		d.Reversal = true
	}
	if next.Strengthened() && !prev.Strengthened() && prev.Sense() == next.Sense() {
		d.Strengthening = true
	}
	return d
}

// DecideMulti runs one decision cycle against every tracked intruder,
// fusing the per-threat table queries worst-case-first (see the package
// comment above). tracks must hold at least one entry; a single track is
// bit-identical to Decide. The reported Tau and H are those of the most
// urgent threat (smallest effective tau, first index on ties).
func (l *Logic) DecideMulti(own uav.State, tracks []geom.Track, mask SenseMask) Decision {
	if len(tracks) == 1 {
		return l.Decide(own, tracks[0].Pos, tracks[0].Vel, mask)
	}
	l.decisions++
	ownVel := own.VelVec()
	prev := l.advisory
	d := multiCycle(l.table, prev, own, ownVel, tracks, mask, &l.multiQ,
		func(q *[NumAdvisories]float64, tau, h, intrVS float64) {
			l.table.AllQValues(q, tau, h, ownVel.Z, intrVS, prev)
		})
	l.advisory = d.Advisory
	if d.NewAlert {
		l.alerts++
	}
	if d.Reversal {
		l.reversals++
	}
	return d
}

// DecideMulti runs one QMDP decision cycle against every tracked intruder:
// each threat's belief-integrated action values fuse worst-case-first
// exactly like Logic.DecideMulti. A single track is bit-identical to the
// pairwise Decide.
func (l *BeliefLogic) DecideMulti(own uav.State, tracks []geom.Track, mask SenseMask) Decision {
	if len(tracks) == 1 {
		return l.Decide(own, tracks[0].Pos, tracks[0].Vel, mask)
	}
	ownVel := own.VelVec()
	prev := l.advisory
	d := multiCycle(l.table, prev, own, ownVel, tracks, mask, &l.multiQ,
		func(q *[NumAdvisories]float64, tau, h, intrVS float64) {
			l.expectedAllQ(q, tau, h, ownVel.Z, intrVS, prev)
		})
	l.advisory = d.Advisory
	if d.NewAlert {
		l.alerts++
	}
	return d
}
