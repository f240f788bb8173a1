// Package uav models the point-mass unmanned aircraft used in the
// three-dimensional encounter simulations: kinematic flight following an
// initial velocity (the flight plan), vertical maneuvers commanded by a
// collision avoidance system and executed with bounded acceleration after a
// response delay, white-noise environment disturbance, and a noisy ADS-B
// surveillance broadcast.
//
// The paper's simulation section (VI.C) specifies exactly this: "the two
// UAVs fly following their initial velocities but also be affected by
// environment disturbance"; "if collision avoidance commands are emitted,
// UAVs will then maneuver according to the commands"; "we explicitly model
// the sensor noise by adding white noise to the received information".
package uav

import (
	"fmt"
	"math"
	"math/rand/v2"

	"acasxval/internal/geom"
)

// Config holds the performance and disturbance parameters of a UAV.
type Config struct {
	// VerticalAccel is the maximum vertical acceleration used to capture a
	// commanded vertical rate, m/s^2. ACAS-style maneuvers are flown at
	// about g/4.
	VerticalAccel float64
	// StrengthenAccel is the vertical acceleration for strengthened
	// (increased-rate) advisories, m/s^2; about g/3.
	StrengthenAccel float64
	// MaxVerticalRate limits |vertical speed|, m/s.
	MaxVerticalRate float64
	// ResponseDelay is the time between receiving a new command and
	// beginning to maneuver, seconds. UAV autopilots respond faster than
	// pilots; default 1 s.
	ResponseDelay float64
	// TurnRate is the maximum heading rate for commanded turns, rad/s
	// (default: a standard-rate 3 degrees/s turn).
	TurnRate float64
	// VerticalNoise is the diffusion coefficient of the Brownian vertical
	// rate disturbance: the vertical speed accumulates noise with standard
	// deviation VerticalNoise*sqrt(t) over t seconds. Units m/s per
	// sqrt-second.
	VerticalNoise float64
	// SpeedNoise is the diffusion coefficient of the ground-speed
	// disturbance (gusts), m/s per sqrt-second.
	SpeedNoise float64
	// HeadingNoise is the diffusion coefficient of the heading
	// disturbance, rad per sqrt-second.
	HeadingNoise float64
}

// DefaultConfig returns a plausible small-UAV parameterization.
func DefaultConfig() Config {
	return Config{
		VerticalAccel:   geom.G / 4,
		StrengthenAccel: geom.G / 3,
		MaxVerticalRate: geom.FPM(3000),
		ResponseDelay:   1.0,
		TurnRate:        3 * math.Pi / 180,
		VerticalNoise:   0.6,
		SpeedNoise:      0.4,
		HeadingNoise:    0.004,
	}
}

// Validate checks the configuration for physical sanity.
func (c Config) Validate() error {
	if c.VerticalAccel <= 0 {
		return fmt.Errorf("uav: VerticalAccel %v <= 0", c.VerticalAccel)
	}
	if c.StrengthenAccel < c.VerticalAccel {
		return fmt.Errorf("uav: StrengthenAccel %v < VerticalAccel %v", c.StrengthenAccel, c.VerticalAccel)
	}
	if c.MaxVerticalRate <= 0 {
		return fmt.Errorf("uav: MaxVerticalRate %v <= 0", c.MaxVerticalRate)
	}
	if c.ResponseDelay < 0 {
		return fmt.Errorf("uav: negative ResponseDelay %v", c.ResponseDelay)
	}
	if c.TurnRate < 0 {
		return fmt.Errorf("uav: negative TurnRate %v", c.TurnRate)
	}
	if c.VerticalNoise < 0 || c.SpeedNoise < 0 || c.HeadingNoise < 0 {
		return fmt.Errorf("uav: negative noise sigma")
	}
	return nil
}

// State is the true kinematic state of a UAV.
type State struct {
	Pos geom.Vec3
	Vel geom.Velocity
}

// VelVec returns the Cartesian velocity.
func (s State) VelVec() geom.Vec3 { return s.Vel.Vec() }

// Command is a maneuver command from a collision avoidance system. Vertical
// and horizontal guidance can be commanded independently: ACAS-style logic
// commands vertical rates, velocity-obstacle methods command headings.
type Command struct {
	// HasVS makes TargetVS active.
	HasVS bool
	// TargetVS is the commanded vertical rate, m/s (positive up).
	TargetVS float64
	// Strengthen selects the higher vertical acceleration limit.
	Strengthen bool
	// HasHeading makes TargetHeading active.
	HasHeading bool
	// TargetHeading is the commanded bearing, radians.
	TargetHeading float64
}

// UAV is a simulated aircraft. Create one with New; advance it with Step.
type UAV struct {
	cfg  Config
	st   State
	plan geom.Velocity // the flight-plan velocity flown when no command is active

	cmd       Command
	hasCmd    bool
	delayLeft float64
}

// New creates a UAV with the given configuration and initial state. The
// initial velocity becomes the flight plan the aircraft tracks when no
// avoidance command is active.
func New(cfg Config, initial State) (*UAV, error) {
	u := &UAV{}
	if err := u.Init(cfg, initial); err != nil {
		return nil, err
	}
	return u, nil
}

// Init (re)initializes the aircraft in place: validate and install the
// configuration, then Reset to the initial state. It lets a caller embed a
// UAV by value and rebuild it without allocating.
func (u *UAV) Init(cfg Config, initial State) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	u.cfg = cfg
	u.Reset(initial)
	return nil
}

// Reset returns the aircraft to a fresh-from-New state under its current
// configuration: the initial velocity becomes the new flight plan and any
// active command (and pending response delay) is discarded. A reset UAV
// flies the byte-identical trajectory of a newly constructed one given the
// same disturbance stream.
func (u *UAV) Reset(initial State) {
	u.st = initial
	u.plan = initial.Vel
	u.cmd = Command{}
	u.hasCmd = false
	u.delayLeft = 0
}

// State returns the current true state.
func (u *UAV) State() State { return u.st }

// Maneuvering reports whether the UAV is currently deviating from its flight
// plan to execute a command (i.e. a command is active and the response delay
// has elapsed).
func (u *UAV) Maneuvering() bool { return u.hasCmd && u.delayLeft <= 0 }

// Command issues a vertical-rate command. Re-issuing the same target keeps
// the current compliance state; a changed target restarts the response
// delay only if the aircraft has not already begun maneuvering (a
// maneuvering aircraft transitions between advisories without re-incurring
// the initial delay, matching ACAS pilot-response modeling).
func (u *UAV) Command(cmd Command) {
	if u.hasCmd && u.cmd == cmd {
		return
	}
	already := u.Maneuvering()
	u.cmd = cmd
	u.hasCmd = true
	if !already {
		u.delayLeft = u.cfg.ResponseDelay
	}
}

// ClearCommand cancels any active command; the aircraft returns to its
// flight-plan vertical rate.
func (u *UAV) ClearCommand() {
	u.hasCmd = false
	u.delayLeft = 0
}

// targetVS returns the vertical rate the aircraft is currently trying to
// fly and the acceleration limit for capturing it.
func (u *UAV) targetVS() (vs, accel float64) {
	if u.Maneuvering() && u.cmd.HasVS {
		a := u.cfg.VerticalAccel
		if u.cmd.Strengthen {
			a = u.cfg.StrengthenAccel
		}
		return u.cmd.TargetVS, a
	}
	return u.plan.Vs, u.cfg.VerticalAccel
}

// headingStep returns the heading change to apply this step: turning
// toward the commanded heading at the configured turn rate when a heading
// command is active, zero otherwise.
func (u *UAV) headingStep(dt float64) float64 {
	if !u.Maneuvering() || !u.cmd.HasHeading || u.cfg.TurnRate == 0 {
		return 0
	}
	diff := geom.WrapSigned(u.cmd.TargetHeading - u.st.Vel.Psi)
	return geom.Clamp(diff, -u.cfg.TurnRate*dt, u.cfg.TurnRate*dt)
}

// Step advances the aircraft by dt seconds, applying command capture
// dynamics and sampling the white-noise disturbance from rng. A nil rng
// disables disturbance (deterministic flight).
func (u *UAV) Step(dt float64, rng *rand.Rand) {
	if dt <= 0 {
		return
	}
	if u.hasCmd && u.delayLeft > 0 {
		u.delayLeft -= dt
	}

	targetVS, accel := u.targetVS()

	// Capture the target vertical rate with bounded acceleration.
	dv := targetVS - u.st.Vel.Vs
	maxDelta := accel * dt
	dv = geom.Clamp(dv, -maxDelta, maxDelta)
	vs := u.st.Vel.Vs + dv

	gs := u.st.Vel.Gs
	psi := u.st.Vel.Psi + u.headingStep(dt)
	if rng != nil {
		// White-noise (Brownian) disturbance: increments scale with
		// sqrt(dt) so the accumulated variance over a fixed wall-clock
		// interval does not depend on the integration step size.
		sqrtDt := math.Sqrt(dt)
		vs += u.cfg.VerticalNoise * rng.NormFloat64() * sqrtDt
		gs += u.cfg.SpeedNoise * rng.NormFloat64() * sqrtDt
		psi += u.cfg.HeadingNoise * rng.NormFloat64() * sqrtDt
	}
	vs = geom.Clamp(vs, -u.cfg.MaxVerticalRate, u.cfg.MaxVerticalRate)
	if gs < 0 {
		gs = 0
	}

	u.st.Vel = geom.Velocity{Gs: gs, Psi: geom.WrapAngle(psi), Vs: vs}
	u.st.Pos = u.st.Pos.Add(u.st.Vel.Vec().Scale(dt))
}
