package acasx

import (
	"fmt"

	"acasxval/internal/geom"
)

// GridConfig discretizes the continuous state variables. The defaults put
// every advisory target rate and the NMAC altitude threshold exactly on
// grid cut points so the interpolation error is zero where it matters most.
type GridConfig struct {
	// HMax bounds relative altitude |h| in metres (default 1000 ft).
	HMax float64
	// NumH is the number of h cut points (odd, so 0 is a cut point).
	NumH int
	// RateMax bounds vertical rates |dh| in m/s (default 2500 fpm).
	RateMax float64
	// NumRate is the number of cut points per vertical-rate axis (odd).
	NumRate int
	// Horizon is the number of one-second tau slices (default 40: the
	// short-term 20-40 s regime ACAS XU addresses).
	Horizon int
}

// DynamicsConfig is the probabilistic encounter-evolution model: how the
// offline MDP believes vertical rates evolve during one decision step.
type DynamicsConfig struct {
	// Dt is the decision period in seconds (default 1).
	Dt float64
	// OwnAccelSigma is the white-noise vertical acceleration of the
	// own-ship when no advisory is active, m/s^2.
	OwnAccelSigma float64
	// IntruderAccelSigma is the intruder's white-noise vertical
	// acceleration, m/s^2 (the intruder is never assumed to maneuver in
	// the offline model).
	IntruderAccelSigma float64
	// ComplianceSigma is the residual noise while complying with an
	// advisory, m/s^2.
	ComplianceSigma float64
	// Accel is the own-ship's capture acceleration for initial advisories,
	// m/s^2 (about g/4).
	Accel float64
	// StrengthenAccel is the capture acceleration for strengthened
	// advisories, m/s^2 (about g/3).
	StrengthenAccel float64
}

// CostConfig is the preference system. Values follow the paper's
// convention: the mid-air collision state is assigned 10000 (section VII
// footnote: "in the MDP model 10000 was assigned to mid-air collision
// states"); the remaining event costs are scaled relative to it following
// the structure of ATC-371.
type CostConfig struct {
	// Collision is the cost of an NMAC at tau = 0.
	Collision float64
	// NewAlert is the cost of issuing an advisory from COC (false-alarm
	// control).
	NewAlert float64
	// ActivePerStep is the per-step cost of keeping any advisory active.
	ActivePerStep float64
	// Strengthen is the cost of strengthening an advisory.
	Strengthen float64
	// Reversal is the cost of reversing advisory sense.
	Reversal float64
	// NMACVertical is the vertical threshold defining a collision at
	// tau = 0, metres (100 ft).
	NMACVertical float64
}

// Config assembles the full offline model plus the online tau geometry.
type Config struct {
	Grid     GridConfig
	Dynamics DynamicsConfig
	Cost     CostConfig
	// DMOD is the horizontal conflict radius used to derive tau online,
	// metres (500 ft).
	DMOD float64
	// UseVerticalTau enables the vertical-conflict fallback in the online
	// executive: when the aircraft are already inside DMOD horizontally
	// (horizontal tau = 0) but still vertically separated, the decision
	// tau becomes the time until the vertical separation closes to the
	// NMAC band. Off by default — the paper's system derives tau from
	// horizontal closure only, which is precisely why its GA search
	// discovers the slow-closure tail-approach blind spot. Turning this on
	// is the model revision a developer would make after that discovery
	// (see examples/modelrevision).
	UseVerticalTau bool
	// Workers parallelizes the offline solve (default: serial).
	Workers int
}

// DefaultConfig returns the full-resolution parameterization.
func DefaultConfig() Config {
	return Config{
		Grid: GridConfig{
			HMax:    geom.Feet(1000),
			NumH:    41,
			RateMax: geom.FPM(2500),
			NumRate: 11,
			Horizon: 40,
		},
		Dynamics: DynamicsConfig{
			Dt:                 1.0,
			OwnAccelSigma:      1.0,
			IntruderAccelSigma: 1.5,
			ComplianceSigma:    0.5,
			Accel:              geom.G / 4,
			StrengthenAccel:    geom.G / 3,
		},
		Cost: CostConfig{
			Collision:     10000,
			NewAlert:      100,
			ActivePerStep: 10,
			Strengthen:    20,
			Reversal:      50,
			NMACVertical:  geom.NMACVertical,
		},
		DMOD:    geom.NMACHorizontal,
		Workers: 1,
	}
}

// CoarseConfig returns a reduced-resolution model for tests and quick
// examples: same structure, ~30x fewer states.
func CoarseConfig() Config {
	cfg := DefaultConfig()
	cfg.Grid.NumH = 17
	cfg.Grid.NumRate = 5
	cfg.Grid.Horizon = 25
	return cfg
}

// Validate checks the configuration.
func (c Config) Validate() error {
	g := c.Grid
	if g.HMax <= 0 {
		return fmt.Errorf("acasx: HMax %v <= 0", g.HMax)
	}
	if g.NumH < 3 || g.NumH%2 == 0 {
		return fmt.Errorf("acasx: NumH %d must be odd and >= 3", g.NumH)
	}
	if g.RateMax <= 0 {
		return fmt.Errorf("acasx: RateMax %v <= 0", g.RateMax)
	}
	if g.RateMax < geom.FPM(2500) {
		return fmt.Errorf("acasx: RateMax %v below the strengthened advisory rate %v", g.RateMax, geom.FPM(2500))
	}
	if g.NumRate < 3 || g.NumRate%2 == 0 {
		return fmt.Errorf("acasx: NumRate %d must be odd and >= 3", g.NumRate)
	}
	if g.Horizon < 1 {
		return fmt.Errorf("acasx: Horizon %d < 1", g.Horizon)
	}
	d := c.Dynamics
	if d.Dt <= 0 {
		return fmt.Errorf("acasx: Dt %v <= 0", d.Dt)
	}
	if d.OwnAccelSigma < 0 || d.IntruderAccelSigma < 0 || d.ComplianceSigma < 0 {
		return fmt.Errorf("acasx: negative dynamics sigma")
	}
	if d.Accel <= 0 || d.StrengthenAccel < d.Accel {
		return fmt.Errorf("acasx: invalid accelerations %v/%v", d.Accel, d.StrengthenAccel)
	}
	k := c.Cost
	if k.Collision <= 0 {
		return fmt.Errorf("acasx: Collision cost %v <= 0", k.Collision)
	}
	if k.NewAlert < 0 || k.ActivePerStep < 0 || k.Strengthen < 0 || k.Reversal < 0 {
		return fmt.Errorf("acasx: negative event cost")
	}
	if k.NMACVertical <= 0 || k.NMACVertical > g.HMax {
		return fmt.Errorf("acasx: NMACVertical %v outside (0, HMax]", k.NMACVertical)
	}
	if c.DMOD <= 0 {
		return fmt.Errorf("acasx: DMOD %v <= 0", c.DMOD)
	}
	return nil
}
