package sim

import (
	"acasxval/internal/acasx"
	"acasxval/internal/geom"
	"acasxval/internal/uav"
)

// ACASXU adapts the acasx logic executive to the System interface, so the
// encounter runner can equip an aircraft with the table-driven logic.
//
// Decide is on the innermost loop of every validation workload (Monte-Carlo
// estimation, GA search, campaign sweeps): each call runs one decision
// cycle through the executive's shared-weight table scan
// (Table.BestAdvisory), which performs no allocation.
type ACASXU struct {
	logic *acasx.Logic
}

var _ AvoidanceSystem = (*ACASXU)(nil)

// NewACASXU wraps a built or loaded logic table.
func NewACASXU(table *acasx.Table) *ACASXU {
	return &ACASXU{logic: acasx.NewLogic(table)}
}

// fromACASDecision converts an executive decision into the engine's form.
func fromACASDecision(d acasx.Decision) Decision {
	out := Decision{
		Alerting: d.Alerting,
		NewAlert: d.NewAlert,
	}
	switch d.Advisory.Sense() {
	case acasx.SenseUp:
		out.Sense = SenseUp
	case acasx.SenseDown:
		out.Sense = SenseDown
	}
	if cmd, ok := d.Command(); ok {
		out.Cmd = cmd
		out.HasCmd = true
	}
	return out
}

// Decide implements System.
func (a *ACASXU) Decide(_ float64, own uav.State, intrPos, intrVel geom.Vec3, c Constraint) Decision {
	mask := acasx.SenseMask{BanUp: c.BanUp, BanDown: c.BanDown}
	return fromACASDecision(a.logic.Decide(own, intrPos, intrVel, mask))
}

// DecideTracks implements AvoidanceSystem: the single-threat table query
// for one track (the classic pairwise path, bit for bit), per-intruder
// table queries fused most-restrictive-first for several
// (acasx.Logic.DecideMulti).
func (a *ACASXU) DecideTracks(now float64, own uav.State, tracks []geom.Track, c Constraint) Decision {
	if len(tracks) == 1 {
		return a.Decide(now, own, tracks[0].Pos, tracks[0].Vel, c)
	}
	mask := acasx.SenseMask{BanUp: c.BanUp, BanDown: c.BanDown}
	return fromACASDecision(a.logic.DecideMulti(own, tracks, mask))
}

// Reset implements System.
func (a *ACASXU) Reset() { a.logic.Reset() }

// Advisory exposes the active advisory for inspection.
func (a *ACASXU) Advisory() acasx.Advisory { return a.logic.Advisory() }

// ACASXUBelief adapts the QMDP belief-weighted executive to the System
// interface (the paper's section IV POMDP question, answered with the
// standard QMDP approximation).
type ACASXUBelief struct {
	logic *acasx.BeliefLogic
}

var _ AvoidanceSystem = (*ACASXUBelief)(nil)

// NewACASXUBelief wraps a table with a belief-weighted executive.
func NewACASXUBelief(table *acasx.Table, sigmas acasx.BeliefSigmas) (*ACASXUBelief, error) {
	logic, err := acasx.NewBeliefLogic(table, sigmas)
	if err != nil {
		return nil, err
	}
	return &ACASXUBelief{logic: logic}, nil
}

// Decide implements System.
func (a *ACASXUBelief) Decide(_ float64, own uav.State, intrPos, intrVel geom.Vec3, c Constraint) Decision {
	mask := acasx.SenseMask{BanUp: c.BanUp, BanDown: c.BanDown}
	return fromACASDecision(a.logic.Decide(own, intrPos, intrVel, mask))
}

// DecideTracks implements AvoidanceSystem: the single-threat belief query
// for one track (the classic pairwise path, bit for bit), per-intruder
// belief integrations fused most-restrictive-first for several
// (acasx.BeliefLogic.DecideMulti).
func (a *ACASXUBelief) DecideTracks(now float64, own uav.State, tracks []geom.Track, c Constraint) Decision {
	if len(tracks) == 1 {
		return a.Decide(now, own, tracks[0].Pos, tracks[0].Vel, c)
	}
	mask := acasx.SenseMask{BanUp: c.BanUp, BanDown: c.BanDown}
	return fromACASDecision(a.logic.DecideMulti(own, tracks, mask))
}

// Reset implements System.
func (a *ACASXUBelief) Reset() { a.logic.Reset() }
