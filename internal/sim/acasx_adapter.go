package sim

import (
	"acasxval/internal/acasx"
	"acasxval/internal/geom"
	"acasxval/internal/uav"
)

// ACASXU adapts an acasx logic executive — the point-estimate table lookup
// or the QMDP belief-weighted one — to the AvoidanceSystem and System
// interfaces, so the encounter runner can equip an aircraft with the
// table-driven logic.
//
// DecideTracks is on the innermost loop of every validation workload
// (Monte-Carlo estimation, GA search, campaign sweeps): each call runs one
// decision cycle (acasx.Logic.DecideMulti) against every track, which
// performs no allocation.
type ACASXU struct {
	logic *acasx.Logic
}

var _ AvoidanceSystem = (*ACASXU)(nil)

// NewACASXU wraps a built or loaded logic table with a point-estimate
// executive.
func NewACASXU(table *acasx.Table) *ACASXU {
	return &ACASXU{logic: acasx.NewLogic(table)}
}

// NewACASXUBelief wraps a table with a QMDP belief-weighted executive (the
// paper's section IV POMDP question, answered with the standard QMDP
// approximation).
func NewACASXUBelief(table *acasx.Table, sigmas acasx.BeliefSigmas) (*ACASXU, error) {
	logic, err := acasx.NewBeliefLogic(table, sigmas)
	if err != nil {
		return nil, err
	}
	return &ACASXU{logic: logic}, nil
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

// DecideTracks implements AvoidanceSystem: one decision cycle against every
// track, the per-intruder table queries fused most-restrictive-first
// (acasx.Logic.DecideMulti).
func (a *ACASXU) DecideTracks(_ float64, own uav.State, tracks []geom.Track, c Constraint) Decision {
	mask := acasx.SenseMask{BanUp: c.BanUp, BanDown: c.BanDown}
	return fromACASDecision(a.logic.DecideMulti(own, tracks, mask))
}

// Reset implements System.
func (a *ACASXU) Reset() { a.logic.Reset() }

// Advisory exposes the active advisory for inspection.
func (a *ACASXU) Advisory() acasx.Advisory { return a.logic.Advisory() }
