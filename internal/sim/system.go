package sim

import (
	"acasxval/internal/geom"
	"acasxval/internal/uav"
)

// AvoidanceSystem is the multi-intruder-first collision avoidance contract:
// the engine hands the system every currently-tracked intruder once per
// decision cycle and the system resolves them all in one step. It is the
// interface the encounter runner actually consults — the pairwise System
// remains as the compatibility surface, lifted onto this contract by Adapt.
//
// Implementations must perform no steady-state allocation in DecideTracks:
// the method sits on the innermost loop of every validation workload
// (Monte-Carlo estimation, adversarial search, campaign sweeps), and the
// episode engine's zero-alloc guarantee extends through it.
type AvoidanceSystem interface {
	// DecideTracks runs one decision cycle against every tracked intruder.
	// tracks holds at least one entry and is only valid for the duration of
	// the call (the engine reuses the backing array); implementations must
	// not retain it.
	DecideTracks(now float64, own uav.State, tracks []geom.Track, c Constraint) Decision
	// Reset prepares the system for a fresh encounter.
	Reset()
}

// Adapt lifts a pairwise System onto the AvoidanceSystem contract. Systems
// that already implement AvoidanceSystem are returned unchanged; everything
// else is wrapped in an adapter reproducing the engine's classic dispatch —
// a single track goes through Decide (bit-identical to the historical
// pairwise path), several tracks face only the nearest threat.
//
// The returned value also implements System, so an adapted system still
// travels through pairwise plumbing (factories, AppendSystemsFromPair)
// unchanged.
func Adapt(s System) AvoidanceSystem {
	if as, ok := s.(AvoidanceSystem); ok {
		return as
	}
	return &pairwiseAdapter{sys: s}
}

// pairwiseAdapter implements AvoidanceSystem over a pairwise System. The
// encounter runner embeds one per aircraft slot so adapting inside the
// episode loop never allocates.
type pairwiseAdapter struct {
	sys System
}

var (
	_ AvoidanceSystem = (*pairwiseAdapter)(nil)
	_ System          = (*pairwiseAdapter)(nil)
)

// DecideTracks implements AvoidanceSystem with the classic dispatch (see
// Adapt).
func (a *pairwiseAdapter) DecideTracks(now float64, own uav.State, tracks []geom.Track, c Constraint) Decision {
	if len(tracks) == 0 {
		return Decision{}
	}
	if len(tracks) == 1 {
		return a.sys.Decide(now, own, tracks[0].Pos, tracks[0].Vel, c)
	}
	// A pairwise system faces the nearest intruder — the most immediately
	// pressing conflict.
	n := nearestTrack(own.Pos, tracks)
	return a.sys.Decide(now, own, tracks[n].Pos, tracks[n].Vel, c)
}

// Decide implements System by passing through to the wrapped system.
func (a *pairwiseAdapter) Decide(now float64, own uav.State, intrPos, intrVel geom.Vec3, c Constraint) Decision {
	return a.sys.Decide(now, own, intrPos, intrVel, c)
}

// Reset implements AvoidanceSystem and System.
func (a *pairwiseAdapter) Reset() { a.sys.Reset() }
