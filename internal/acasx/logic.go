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
// rates) from surveillance, and queries the logic table.
//
// Logic is not safe for concurrent use; each aircraft owns one instance.
type Logic struct {
	table    *Table
	advisory Advisory
	// decisions counts Decide calls; diagnostics only.
	decisions int
	// alerts counts COC -> advisory transitions.
	alerts int
	// reversals counts sense reversals.
	reversals int
	// multiQ is the per-threat query scratch of DecideMulti: the buffer
	// crosses the indirect query call of multiCycle, so a stack array
	// would escape and allocate every decision cycle.
	multiQ [NumAdvisories]float64
}

// NewLogic creates an executive around a built or loaded table.
func NewLogic(table *Table) *Logic {
	return &Logic{table: table}
}

// Advisory returns the currently active advisory.
func (l *Logic) Advisory() Advisory { return l.advisory }

// Alerts returns the number of COC -> advisory transitions so far.
func (l *Logic) Alerts() int { return l.alerts }

// Reversals returns the number of sense reversals so far.
func (l *Logic) Reversals() int { return l.reversals }

// Reset clears the advisory state (new encounter).
func (l *Logic) Reset() {
	l.advisory = COC
	l.decisions = 0
	l.alerts = 0
	l.reversals = 0
}

// Decide runs one decision cycle. own is the aircraft's own state (assumed
// perfectly known); intrPos/intrVel is the intruder track from surveillance
// (possibly noisy/filtered); mask carries coordination constraints.
func (l *Logic) Decide(own uav.State, intrPos, intrVel geom.Vec3, mask SenseMask) Decision {
	l.decisions++
	ownVel := own.VelVec()
	h := intrPos.Z - own.Pos.Z
	dh0 := ownVel.Z
	dh1 := intrVel.Z
	tau := effectiveTau(&l.table.cfg, own.Pos, ownVel, intrPos, intrVel, h, dh0, dh1)

	prev := l.advisory
	next := COC
	if tau >= float64(l.table.Horizon()) {
		// No horizontal conflict inside the optimization horizon. A fresh
		// threat stays clear of conflict; an active advisory is maintained
		// until the traffic is genuinely clear — with noisy surveillance
		// the tau estimate can transiently exceed the horizon mid-conflict,
		// and dropping the advisory would hand the aircraft back to its
		// (conflicting) flight plan.
		if prev != COC && !clearOfConflict(own.Pos, ownVel, intrPos, intrVel, l.table.cfg.DMOD) {
			next = prev
		}
	} else {
		// The shared-weight scan keeps the per-decision table query
		// allocation-free: one weight computation covers every advisory.
		best, ok := l.table.BestAdvisory(tau, h, dh0, dh1, prev, mask)
		if ok {
			next = best
		}
		if next == COC && prev != COC &&
			!clearOfConflict(own.Pos, ownVel, intrPos, intrVel, l.table.cfg.DMOD) {
			// The table proposes terminating the advisory because the
			// projected miss distance is adequate — but its clear-of-
			// conflict model assumes the aircraft drift, whereas real
			// aircraft resume their (conflicting) flight plans and
			// re-converge. Hold the advisory until the threat is
			// horizontally diverging, as fielded ACAS logic does.
			next = prev
		}
	}
	l.advisory = next
	d := Decision{
		Advisory: next,
		Tau:      tau,
		H:        h,
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

// clearOfConflict reports whether the intruder is horizontally diverging
// and outside the conflict radius — the condition for discontinuing an
// active advisory when the tau estimate has left the table's horizon.
func clearOfConflict(ownPos, ownVel, intrPos, intrVel geom.Vec3, dmod float64) bool {
	dp := intrPos.Sub(ownPos).Horizontal()
	r := dp.Norm()
	if r <= dmod {
		return false
	}
	dv := intrVel.Sub(ownVel).Horizontal()
	// Diverging when the range rate is positive (dp . dv > 0).
	return dp.Dot(dv) > 0
}

// CoordinationMask returns the sense restriction an aircraft broadcasting
// advisory a imposes on its peer: the peer must not maneuver in the same
// direction.
func CoordinationMask(a Advisory) SenseMask {
	switch a.Sense() {
	case SenseUp:
		return SenseMask{BanUp: true}
	case SenseDown:
		return SenseMask{BanDown: true}
	default:
		return SenseMask{}
	}
}

// NMAC reports whether two aircraft states constitute a near mid-air
// collision under the standard cylinder (500 ft horizontal, 100 ft
// vertical) — the paper's mid-air collision criterion.
func NMAC(a, b geom.Vec3) bool {
	return a.HorizontalDistanceTo(b) < geom.NMACHorizontal &&
		math.Abs(a.Z-b.Z) < geom.NMACVertical
}
