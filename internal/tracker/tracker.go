// Package tracker provides a per-axis alpha-beta track filter that smooths
// noisy ADS-B position/velocity reports before they reach the collision
// avoidance logic. Raw white-noise measurements (the paper's explicit sensor
// model) make the estimated closure rate — and hence the tau used by the
// logic — jitter; a simple fixed-gain filter is the standard surveillance
// front end for that problem.
package tracker

import (
	"fmt"

	"acasxval/internal/geom"
)

// Estimate is the filtered kinematic state of a tracked aircraft.
type Estimate struct {
	Pos geom.Vec3
	Vel geom.Vec3
	// Time is the simulation time of the estimate.
	Time float64
	// Initialized is false until the first measurement has been absorbed.
	Initialized bool
}

// Config holds the filter gains. Alpha corrects position, Beta corrects
// velocity from the position innovation, and VelGain blends the measured
// velocity directly (ADS-B reports velocity as well as position, so the
// filter can use both).
type Config struct {
	// Alpha is the position gain in (0, 1].
	Alpha float64
	// Beta is the velocity-from-innovation gain in [0, 2).
	Beta float64
	// VelGain blends the directly measured velocity in [0, 1].
	VelGain float64
	// CoastLimit is the maximum time (seconds) the track may be predicted
	// forward without a measurement before it drops back to uninitialized.
	CoastLimit float64
}

// DefaultConfig returns moderately smoothing gains appropriate for
// GPS-grade ADS-B noise at 1 Hz.
func DefaultConfig() Config {
	return Config{Alpha: 0.6, Beta: 0.2, VelGain: 0.5, CoastLimit: 5}
}

// Validate checks gain ranges.
func (c Config) Validate() error {
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("tracker: alpha %v outside (0, 1]", c.Alpha)
	}
	if c.Beta < 0 || c.Beta >= 2 {
		return fmt.Errorf("tracker: beta %v outside [0, 2)", c.Beta)
	}
	if c.VelGain < 0 || c.VelGain > 1 {
		return fmt.Errorf("tracker: velocity gain %v outside [0, 1]", c.VelGain)
	}
	if c.CoastLimit < 0 {
		return fmt.Errorf("tracker: negative coast limit %v", c.CoastLimit)
	}
	return nil
}

// Tracker filters a stream of timestamped position/velocity measurements.
type Tracker struct {
	cfg Config
	est Estimate
	// lastMeas is the timestamp of the last absorbed measurement. Coast
	// expiry is measured from here rather than from the estimate time:
	// Predict advances the estimate time, so measuring from est.Time
	// would let a dead-reckoned track survive any dropout as long as it
	// was predicted every cycle.
	lastMeas float64
}

// New creates a tracker; the first Update initializes the track directly
// from the measurement.
func New(cfg Config) (*Tracker, error) {
	t := &Tracker{}
	if err := t.Init(cfg); err != nil {
		return nil, err
	}
	return t, nil
}

// Init (re)initializes the tracker in place: validate and install the
// configuration and drop any existing track. It lets a caller embed a
// Tracker by value and rebuild it without allocating.
func (t *Tracker) Init(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	t.cfg = cfg
	t.Reset()
	return nil
}

// Reset drops the track back to uninitialized.
func (t *Tracker) Reset() {
	t.est = Estimate{}
	t.lastMeas = 0
}

// Predict advances the estimate to time now without a measurement (dead
// reckoning). A track that has gone longer than the coast limit without
// a measurement resets to uninitialized, forcing the logic downstream to
// clear-of-conflict rather than acting on divergent dead reckoning.
func (t *Tracker) Predict(now float64) Estimate {
	if !t.est.Initialized {
		return t.est
	}
	if t.cfg.CoastLimit > 0 && now-t.lastMeas > t.cfg.CoastLimit {
		t.Reset()
		return t.est
	}
	dt := now - t.est.Time
	if dt <= 0 {
		return t.est
	}
	t.est.Pos = t.est.Pos.Add(t.est.Vel.Scale(dt))
	t.est.Time = now
	return t.est
}

// Update absorbs a measurement of position and velocity at time now and
// returns the new estimate. Out-of-order measurements (now earlier than the
// track time) are ignored.
func (t *Tracker) Update(pos, vel geom.Vec3, now float64) Estimate {
	if !t.est.Initialized {
		t.est = Estimate{Pos: pos, Vel: vel, Time: now, Initialized: true}
		t.lastMeas = now
		return t.est
	}
	// Re-acquisition after a measurement gap longer than the coast limit
	// starts a fresh track from the measurement: blending against a
	// prediction that dead-reckoned through the whole gap would pull the
	// estimate toward arbitrarily stale state.
	if t.cfg.CoastLimit > 0 && now-t.lastMeas > t.cfg.CoastLimit {
		t.est = Estimate{Pos: pos, Vel: vel, Time: now, Initialized: true}
		t.lastMeas = now
		return t.est
	}
	dt := now - t.est.Time
	if dt < 0 {
		return t.est
	}
	// Predict.
	pred := t.est.Pos.Add(t.est.Vel.Scale(dt))
	// Correct.
	innovation := pos.Sub(pred)
	t.est.Pos = pred.Add(innovation.Scale(t.cfg.Alpha))
	velFromInnovation := t.est.Vel
	if dt > 0 {
		velFromInnovation = t.est.Vel.Add(innovation.Scale(t.cfg.Beta / dt))
	}
	// Blend the innovation-corrected velocity with the measured velocity.
	t.est.Vel = velFromInnovation.Lerp(vel, t.cfg.VelGain)
	t.est.Time = now
	t.lastMeas = now
	return t.est
}
