package acasx

import (
	"math"

	"acasxval/internal/geom"
	"acasxval/internal/uav"
)

// Decision is one output of the online logic.
type Decision struct {
	// Advisory is the selected resolution advisory.
	Advisory Advisory
	// Tau is the estimated time to horizontal conflict used for the
	// decision (geom.TauUnbounded when not converging).
	Tau float64
	// H is the relative altitude (intruder minus own) used for the
	// decision, metres.
	H float64
	// Alerting reports whether an advisory other than COC is active.
	Alerting bool
	// NewAlert is true when this decision transitioned COC -> advisory.
	NewAlert bool
	// Reversal is true when this decision reversed advisory sense.
	Reversal bool
	// Strengthening is true when this decision strengthened the advisory.
	Strengthening bool
}

// Logic is the online collision avoidance executive for one aircraft: it
// tracks the active advisory, derives the MDP state (tau, h, vertical
// rates) from surveillance, and queries the logic table — at the
// surveillance point estimate (NewLogic), or integrated over a Gaussian
// belief about the state (NewBeliefLogic).
//
// Logic is not safe for concurrent use; each aircraft owns one instance.
type Logic struct {
	table *Table
	// belief selects the QMDP query (expectedAllQ over sigmas) instead of
	// the point lookup (Table.AllQValues).
	belief bool
	sigmas BeliefSigmas

	advisory Advisory
	// alerts counts COC -> advisory transitions.
	alerts int
	// reversals counts sense reversals.
	reversals int
	// pair is the one-track scratch of Decide.
	pair [1]geom.Track
}

// NewLogic creates a point-estimate executive around a built or loaded
// table.
func NewLogic(table *Table) *Logic {
	return &Logic{table: table}
}

// Advisory returns the currently active advisory.
func (l *Logic) Advisory() Advisory { return l.advisory }

// Reset clears the advisory state (new encounter).
func (l *Logic) Reset() {
	l.advisory = COC
	l.alerts = 0
	l.reversals = 0
}

// Decide runs one decision cycle against a single intruder: the one-track
// DecideMulti. own is the aircraft's own state (assumed perfectly known);
// intrPos/intrVel is the intruder track from surveillance (possibly
// noisy/filtered); mask carries coordination constraints.
func (l *Logic) Decide(own uav.State, intrPos, intrVel geom.Vec3, mask SenseMask) Decision {
	l.pair[0] = geom.Track{Pos: intrPos, Vel: intrVel}
	return l.DecideMulti(own, l.pair[:], mask)
}

// DecideMulti runs one decision cycle against every tracked intruder; tracks
// must hold at least one entry. Each threat inside the optimization horizon
// is queried against the logic table independently (the table itself stays
// pairwise — it was optimized for one intruder), and the per-threat action
// values fuse worst-case-first: an advisory's fused value is its minimum
// value across the threats, and the executive picks the advisory whose
// worst case is best. The most restrictive constraint therefore dominates —
// an advisory that resolves two threats but flies into a third is vetoed by
// the third's value — which is the "most-restrictive-first" fusion rule of
// layered multi-threat logics. With one track this is the classic pairwise
// cycle. The reported Tau and H are those of the most urgent threat
// (smallest effective tau, first index on ties).
func (l *Logic) DecideMulti(own uav.State, tracks []geom.Track, mask SenseMask) Decision {
	cfg := &l.table.cfg
	ownVel := own.VelVec()
	prev := l.advisory
	horizon := float64(l.table.Horizon())
	var fused, q [NumAdvisories]float64
	threats := 0
	minTau, minH := math.Inf(1), 0.0
	for _, tr := range tracks {
		h := tr.Pos.Z - own.Pos.Z
		tau := effectiveTau(cfg, own.Pos, ownVel, tr.Pos, tr.Vel, h, ownVel.Z, tr.Vel.Z)
		if tau < minTau {
			minTau, minH = tau, h
		}
		if tau >= horizon {
			continue
		}
		if l.belief {
			l.expectedAllQ(&q, tau, h, ownVel.Z, tr.Vel.Z, prev)
		} else {
			l.table.AllQValues(&q, tau, h, ownVel.Z, tr.Vel.Z, prev)
		}
		if threats == 0 {
			fused = q
		} else {
			for a := range fused {
				if q[a] < fused[a] {
					fused[a] = q[a]
				}
			}
		}
		threats++
	}

	next := COC
	if threats > 0 {
		if best, ok := bestAllowed(&fused, mask); ok {
			next = best
		}
	}
	if next == COC && prev != COC && !clearOfAll(own.Pos, ownVel, tracks, cfg.DMOD) {
		// Either no threat is inside the horizon — with noisy surveillance
		// the tau estimate can transiently exceed it mid-conflict — or the
		// table proposes terminating the advisory because the projected
		// miss distance is adequate. Its clear-of-conflict model assumes
		// the aircraft drift, whereas real aircraft resume their
		// (conflicting) flight plans and re-converge, so hold the advisory
		// until every threat is horizontally diverging, as fielded ACAS
		// logic does.
		next = prev
	}
	l.advisory = next

	d := Decision{
		Advisory: next,
		Tau:      minTau,
		H:        minH,
		Alerting: next != COC,
	}
	if prev == COC && next != COC {
		d.NewAlert = true
		l.alerts++
	}
	if prev.Sense() != SenseNone && next.Sense() != SenseNone && prev.Sense() != next.Sense() {
		d.Reversal = true
		l.reversals++
	}
	if next.Strengthened() && !prev.Strengthened() && prev.Sense() == next.Sense() {
		d.Strengthening = true
	}
	return d
}

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

// Command converts the active advisory into a UAV vertical-rate command.
// The boolean is false for COC (no command; the caller should clear any
// active command).
func (d Decision) Command() (uav.Command, bool) {
	if d.Advisory == COC {
		return uav.Command{}, false
	}
	return uav.Command{
		HasVS:      true,
		TargetVS:   d.Advisory.TargetRate(),
		Strengthen: d.Advisory.Strengthened(),
	}, true
}

// effectiveTau derives the decision tau. The base definition is the
// horizontal time-to-conflict (geom.Tau). With Config.UseVerticalTau, a
// horizontal tau of zero (already inside DMOD and converging) is replaced
// by the time until the vertical separation closes into the NMAC band —
// the revision that removes the slow-closure blind spot.
func effectiveTau(cfg *Config, ownPos, ownVel, intrPos, intrVel geom.Vec3, h, dh0, dh1 float64) float64 {
	tau := geom.Tau(ownPos, ownVel, intrPos, intrVel, cfg.DMOD)
	if !cfg.UseVerticalTau || tau > 0 {
		return tau
	}
	// Horizontally in conflict now. If also vertically inside the NMAC
	// band, the conflict is immediate.
	band := cfg.Cost.NMACVertical
	if h <= band && h >= -band {
		return 0
	}
	// Time for |h| to shrink to the band at the current relative vertical
	// rate; no imminent conflict when vertically diverging.
	rv := dh1 - dh0
	closing := h*rv < 0
	if !closing || rv == 0 {
		return geom.TauUnbounded
	}
	abs := h
	if abs < 0 {
		abs = -abs
	}
	rate := rv
	if rate < 0 {
		rate = -rate
	}
	return (abs - band) / rate
}

// clearOfAll reports whether every tracked intruder is horizontally
// diverging and outside the conflict radius — the condition for
// discontinuing an active advisory.
func clearOfAll(ownPos, ownVel geom.Vec3, tracks []geom.Track, dmod float64) bool {
	for _, tr := range tracks {
		dp := tr.Pos.Sub(ownPos).Horizontal()
		dv := tr.Vel.Sub(ownVel).Horizontal()
		// Diverging when the range rate is positive (dp . dv > 0).
		if dp.Norm() <= dmod || !(dp.Dot(dv) > 0) {
			return false
		}
	}
	return true
}
