// Package apf implements an artificial potential field collision avoidance
// system (Khatib's classic formulation as applied to UAV separation by
// Archila et al.): the flight plan acts as the attractive potential — the
// aircraft wants to keep its current velocity — while every intruder inside
// an influence radius contributes a repulsive velocity along the gradient
// of the cylinder-normalized separation, quadratically stronger as the
// separation shrinks. The summed field yields a desired velocity that is
// commanded as a vertical rate plus a heading.
//
// Like internal/mpc, the package exists as a validation target: a
// structurally different avoidance method for the search machinery to
// stress through the same sim.AvoidanceSystem interface.
package apf

import (
	"fmt"
	"math"

	"acasxval/internal/geom"
	"acasxval/internal/sim"
	"acasxval/internal/uav"
)

// Config parameterizes the APF system.
type Config struct {
	// InfluenceRadius is the cylinder-normalized separation (metres,
	// horizontal-equivalent) inside which an intruder repulses, the d0 of
	// the classic potential.
	InfluenceRadius float64
	// RepulsiveGain is the repulsive speed at zero separation, m/s: an
	// intruder at normalized distance d contributes
	// RepulsiveGain * ((d0-d)/d0)^2 along the separation gradient.
	RepulsiveGain float64
	// ClosingOnly gates repulsion on approach: diverging intruders inside
	// the influence radius are ignored, preventing the field from chasing
	// traffic that is already resolving.
	ClosingOnly bool
	// VerticalEscape breaks the co-altitude local minimum: when the
	// separation gradient's unit vertical component is weaker than this
	// fraction (a head-on at matched altitude leaves it at zero — the
	// gradient is anti-parallel to flight, so a pure gradient command
	// neither turns nor climbs), the repulsive direction is deflected up to
	// at least this fraction. The rule is selective in the SVO sense:
	// always up, so sense coordination flips the peer of a reciprocal
	// conflict downward. In [0, 1).
	VerticalEscape float64
	// MaxVerticalRate bounds the commanded vertical rate, m/s.
	MaxVerticalRate float64
	// CommandQuantum discretizes the commanded vertical rate, m/s (0
	// disables). A raw potential-field command varies with every noisy
	// surveillance cycle, and the vehicle restarts its response delay each
	// time a changed command arrives before compliance begins — a
	// continuously-varying command is therefore never executed at all.
	// Rounding to a quantum keeps the command stable long enough to comply,
	// exactly as a discrete advisory menu does for ACAS.
	CommandQuantum float64
	// SenseDeadband is the |commanded vertical-rate change| below which the
	// decision claims no vertical sense, m/s.
	SenseDeadband float64
}

// DefaultConfig returns the parameterization used by the experiments.
func DefaultConfig() Config {
	return Config{
		InfluenceRadius: 16 * geom.NMACHorizontal,
		RepulsiveGain:   30,
		ClosingOnly:     true,
		VerticalEscape:  0.4,
		MaxVerticalRate: geom.FPM(3000),
		CommandQuantum:  2,
		SenseDeadband:   0.5,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.InfluenceRadius <= 0 {
		return fmt.Errorf("apf: InfluenceRadius %v <= 0", c.InfluenceRadius)
	}
	if c.RepulsiveGain <= 0 {
		return fmt.Errorf("apf: RepulsiveGain %v <= 0", c.RepulsiveGain)
	}
	if c.MaxVerticalRate <= 0 {
		return fmt.Errorf("apf: MaxVerticalRate %v <= 0", c.MaxVerticalRate)
	}
	if c.SenseDeadband < 0 {
		return fmt.Errorf("apf: negative SenseDeadband %v", c.SenseDeadband)
	}
	if c.VerticalEscape < 0 || c.VerticalEscape >= 1 {
		return fmt.Errorf("apf: VerticalEscape %v outside [0, 1)", c.VerticalEscape)
	}
	if c.CommandQuantum < 0 {
		return fmt.Errorf("apf: negative CommandQuantum %v", c.CommandQuantum)
	}
	return nil
}

// System implements sim.System and sim.AvoidanceSystem with the potential
// field method. Decisions are pure functions of the inputs plus one bit of
// alert-edge state; DecideTracks performs no allocation.
type System struct {
	cfg      Config
	lambda   float64 // vertical-to-horizontal normalization
	alerting bool
	pair     [1]geom.Track // scratch for the pairwise Decide path
}

var (
	_ sim.System          = (*System)(nil)
	_ sim.AvoidanceSystem = (*System)(nil)
)

// New creates an APF system.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &System{cfg: cfg, lambda: geom.NMACHorizontal / geom.NMACVertical}, nil
}

// Reset implements sim.System.
func (s *System) Reset() { s.alerting = false }

// repulsion returns one intruder's repulsive velocity contribution, or the
// zero vector when the intruder is outside the influence radius (or
// diverging, under ClosingOnly).
func (s *System) repulsion(own uav.State, tr geom.Track) geom.Vec3 {
	// Cylinder-normalized separation: vertical distance counts
	// NMACHorizontal/NMACVertical times, so the scalar field's unit sphere
	// is the NMAC cylinder's aspect ratio.
	dx := own.Pos.X - tr.Pos.X
	dy := own.Pos.Y - tr.Pos.Y
	dzn := (own.Pos.Z - tr.Pos.Z) * s.lambda
	d := math.Sqrt(dx*dx + dy*dy + dzn*dzn)
	if d >= s.cfg.InfluenceRadius {
		return geom.Vec3{}
	}
	if s.cfg.ClosingOnly {
		rel := own.VelVec().Sub(tr.Vel)
		// Approaching iff the separation is shrinking: d/dt|r|^2 < 0.
		if dx*rel.X+dy*rel.Y+(own.Pos.Z-tr.Pos.Z)*rel.Z >= 0 {
			return geom.Vec3{}
		}
	}
	frac := (s.cfg.InfluenceRadius - d) / s.cfg.InfluenceRadius
	mag := s.cfg.RepulsiveGain * frac * frac
	if d == 0 {
		// Coincident aircraft: the gradient is undefined; push straight up
		// (an arbitrary but deterministic escape).
		return geom.Vec3{Z: mag}
	}
	// Gradient of the normalized distance with respect to own position: the
	// vertical component carries a second lambda factor (chain rule through
	// the normalization), steering resolutions vertical-first exactly where
	// the NMAC cylinder is tightest.
	g := geom.Vec3{X: dx / d, Y: dy / d, Z: dzn * s.lambda / d}.Unit()
	if g.Z < s.cfg.VerticalEscape {
		// Near-co-altitude (or below-by-little) geometry: escalate to the
		// selective upward escape and renormalize.
		g.Z = s.cfg.VerticalEscape
		g = g.Unit()
	}
	return g.Scale(mag)
}

// DecideTracks implements sim.AvoidanceSystem: sum the repulsive field over
// all tracks; a non-zero field perturbs the current velocity into a
// vertical-rate-plus-heading command.
func (s *System) DecideTracks(_ float64, own uav.State, tracks []geom.Track, c sim.Constraint) sim.Decision {
	var rep geom.Vec3
	active := false
	for _, tr := range tracks {
		r := s.repulsion(own, tr)
		if r != (geom.Vec3{}) {
			active = true
			rep = rep.Add(r)
		}
	}
	if !active {
		s.alerting = false
		return sim.Decision{}
	}

	desired := own.VelVec().Add(rep)
	vs := geom.Clamp(desired.Z, -s.cfg.MaxVerticalRate, s.cfg.MaxVerticalRate)
	// Coordination: never command into a sense the peer has claimed.
	if c.BanUp && vs > own.Vel.Vs {
		vs = math.Min(own.Vel.Vs, 0)
	}
	if c.BanDown && vs < own.Vel.Vs {
		vs = math.Max(own.Vel.Vs, 0)
	}
	// Discretize last (after the ban clamps) so the issued command is stable
	// across noisy cycles and the vehicle's response delay can elapse.
	if q := s.cfg.CommandQuantum; q > 0 {
		vs = math.Round(vs/q) * q
	}

	newAlert := !s.alerting
	s.alerting = true
	d := sim.Decision{
		Cmd: uav.Command{
			HasVS:    true,
			TargetVS: vs,
		},
		HasCmd:   true,
		Alerting: true,
		NewAlert: newAlert,
	}
	if h := desired.Horizontal(); h.NormSq() > 0 {
		d.Cmd.HasHeading = true
		hdg := geom.WrapAngle(math.Atan2(h.Y, h.X))
		// Round the heading to a 3-degree step as well: a command that wobbles
		// with sensor noise is a command the vehicle never complies with.
		const hq = 3 * math.Pi / 180
		d.Cmd.TargetHeading = geom.WrapAngle(math.Round(hdg/hq) * hq)
	}
	switch {
	case vs-own.Vel.Vs > s.cfg.SenseDeadband:
		d.Sense = sim.SenseUp
	case vs-own.Vel.Vs < -s.cfg.SenseDeadband:
		d.Sense = sim.SenseDown
	}
	return d
}

// Decide implements sim.System over the single-track path.
func (s *System) Decide(now float64, own uav.State, intrPos, intrVel geom.Vec3, c sim.Constraint) sim.Decision {
	s.pair[0] = geom.Track{Pos: intrPos, Vel: intrVel}
	return s.DecideTracks(now, own, s.pair[:], c)
}
