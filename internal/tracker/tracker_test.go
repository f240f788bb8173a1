package tracker

import (
	"math"
	"testing"

	"acasxval/internal/geom"
	"acasxval/internal/stats"
)

func mustTracker(t *testing.T, cfg Config) *Tracker {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"alpha zero", func(c *Config) { c.Alpha = 0 }},
		{"alpha big", func(c *Config) { c.Alpha = 1.5 }},
		{"beta negative", func(c *Config) { c.Beta = -0.1 }},
		{"beta big", func(c *Config) { c.Beta = 2 }},
		{"velgain big", func(c *Config) { c.VelGain = 1.1 }},
		{"coast negative", func(c *Config) { c.CoastLimit = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("expected validation error")
			}
			if _, err := New(cfg); err == nil {
				t.Error("New should reject bad config")
			}
		})
	}
}

func TestFirstMeasurementInitializes(t *testing.T) {
	tr := mustTracker(t, DefaultConfig())
	if tr.est.Initialized {
		t.Fatal("fresh tracker claims to be initialized")
	}
	pos := geom.Vec3{X: 1, Y: 2, Z: 3}
	vel := geom.Vec3{X: 10, Y: 0, Z: -1}
	est := tr.Update(pos, vel, 0)
	if !est.Initialized {
		t.Fatal("not initialized after first update")
	}
	if est.Pos != pos || est.Vel != vel {
		t.Errorf("estimate = %+v, want measurement", est)
	}
}

func TestNoiselessTrackIsExact(t *testing.T) {
	tr := mustTracker(t, DefaultConfig())
	vel := geom.Vec3{X: 50, Y: 10, Z: 2}
	for i := 0; i <= 10; i++ {
		now := float64(i)
		pos := vel.Scale(now)
		tr.Update(pos, vel, now)
	}
	est := tr.est
	if est.Pos.DistanceTo(vel.Scale(10)) > 1e-9 {
		t.Errorf("position drifted: %v", est.Pos)
	}
	if est.Vel.Sub(vel).Norm() > 1e-9 {
		t.Errorf("velocity drifted: %v", est.Vel)
	}
}

func TestFilterReducesNoise(t *testing.T) {
	// Straight-line flight with noisy measurements: the filtered position
	// error must be smaller than the raw measurement error.
	cfg := DefaultConfig()
	vel := geom.Vec3{X: 50, Y: 0, Z: 0}
	const sigma = 10.0
	var rawErr, filtErr stats.Accumulator
	for trial := 0; trial < 50; trial++ {
		tr := mustTracker(t, cfg)
		rng := stats.NewChildRNG(21, trial)
		for i := 0; i <= 60; i++ {
			now := float64(i)
			truth := vel.Scale(now)
			meas := truth.Add(geom.Vec3{
				X: sigma * rng.NormFloat64(),
				Y: sigma * rng.NormFloat64(),
				Z: sigma / 2 * rng.NormFloat64(),
			})
			est := tr.Update(meas, vel, now)
			if i > 10 { // after settling
				rawErr.Add(meas.DistanceTo(truth))
				filtErr.Add(est.Pos.DistanceTo(truth))
			}
		}
	}
	if filtErr.Mean() >= rawErr.Mean() {
		t.Errorf("filter did not reduce error: filtered %v vs raw %v", filtErr.Mean(), rawErr.Mean())
	}
}

func TestVelocityEstimateConverges(t *testing.T) {
	// Feed position-only information (measured velocity zeroed, VelGain 0):
	// the beta term must still recover the true velocity.
	cfg := Config{Alpha: 0.5, Beta: 0.3, VelGain: 0, CoastLimit: 0}
	tr := mustTracker(t, cfg)
	vel := geom.Vec3{X: 20, Y: -5, Z: 1}
	for i := 0; i <= 100; i++ {
		now := float64(i)
		tr.Update(vel.Scale(now), geom.Vec3{}, now)
	}
	got := tr.est.Vel
	if got.Sub(vel).Norm() > 0.5 {
		t.Errorf("velocity estimate %v, want ~%v", got, vel)
	}
}

func TestPredictDeadReckons(t *testing.T) {
	tr := mustTracker(t, DefaultConfig())
	vel := geom.Vec3{X: 10, Y: 0, Z: 0}
	tr.Update(geom.Vec3{}, vel, 0)
	est := tr.Predict(2)
	want := geom.Vec3{X: 20, Y: 0, Z: 0}
	if est.Pos.DistanceTo(want) > 1e-9 {
		t.Errorf("predicted pos = %v, want %v", est.Pos, want)
	}
	// Predicting backwards is a no-op.
	if got := tr.Predict(1); got.Pos != est.Pos {
		t.Error("backwards predict changed the estimate")
	}
}

func TestPredictUninitialized(t *testing.T) {
	tr := mustTracker(t, DefaultConfig())
	if est := tr.Predict(10); est.Initialized {
		t.Error("predict on empty track claims initialized")
	}
}

func TestCoastLimitResets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CoastLimit = 3
	tr := mustTracker(t, cfg)
	tr.Update(geom.Vec3{}, geom.Vec3{X: 1}, 0)
	est := tr.Predict(10) // coasted 10 s > limit 3 s
	if est.Initialized {
		t.Error("track survived past coast limit")
	}
}

func TestCoastLimitExpiresUnderPerCyclePredicts(t *testing.T) {
	// A burst dropout predicts the track forward once per decision cycle.
	// Each hop is well under the limit, but the time since the last
	// MEASUREMENT keeps growing — the track must still expire, not
	// dead-reckon forever on 1 s increments.
	cfg := DefaultConfig()
	cfg.CoastLimit = 3
	tr := mustTracker(t, cfg)
	tr.Update(geom.Vec3{}, geom.Vec3{X: 10}, 0)
	for now := 1.0; now <= 3; now++ {
		if est := tr.Predict(now); !est.Initialized {
			t.Fatalf("track expired at %v s, within the %v s limit", now, cfg.CoastLimit)
		}
	}
	if est := tr.Predict(4); est.Initialized {
		t.Fatal("track survived past the coast limit under per-cycle predicts")
	}
}

func TestReacquisitionAfterBurstReinitializes(t *testing.T) {
	// A measurement arriving after a gap longer than the coast limit must
	// start a fresh track at the measurement, not blend with the stale
	// dead-reckoned state from before the burst.
	cfg := DefaultConfig()
	cfg.CoastLimit = 3
	tr := mustTracker(t, cfg)
	tr.Update(geom.Vec3{}, geom.Vec3{X: 100}, 0) // would dead-reckon to x=1000 by t=10
	pos := geom.Vec3{X: 50, Y: 20}
	vel := geom.Vec3{X: -5}
	est := tr.Update(pos, vel, 10)
	if !est.Initialized {
		t.Fatal("re-acquisition did not initialize the track")
	}
	if est.Pos != pos || est.Vel != vel {
		t.Errorf("re-acquired estimate %+v blended stale state, want exactly the measurement (%v, %v)", est, pos, vel)
	}
	// Same thing when the burst already expired the track via Predict.
	tr2 := mustTracker(t, cfg)
	tr2.Update(geom.Vec3{}, geom.Vec3{X: 100}, 0)
	tr2.Predict(10) // expires
	est2 := tr2.Update(pos, vel, 10)
	if !est2.Initialized || est2.Pos != pos || est2.Vel != vel {
		t.Errorf("re-acquisition after expiry = %+v, want exactly the measurement", est2)
	}
}

func TestCoastUnlimitedWhenZero(t *testing.T) {
	// CoastLimit 0 disables expiry entirely, as documented.
	cfg := DefaultConfig()
	cfg.CoastLimit = 0
	tr := mustTracker(t, cfg)
	tr.Update(geom.Vec3{}, geom.Vec3{X: 1}, 0)
	if est := tr.Predict(1e6); !est.Initialized {
		t.Fatal("zero coast limit expired the track")
	}
}

func TestOutOfOrderMeasurementIgnored(t *testing.T) {
	tr := mustTracker(t, DefaultConfig())
	tr.Update(geom.Vec3{X: 100}, geom.Vec3{}, 10)
	before := tr.est
	tr.Update(geom.Vec3{X: 0}, geom.Vec3{}, 5) // stale
	if tr.est != before {
		t.Error("stale measurement modified the track")
	}
}

func TestReset(t *testing.T) {
	tr := mustTracker(t, DefaultConfig())
	tr.Update(geom.Vec3{X: 1}, geom.Vec3{}, 0)
	tr.Reset()
	if tr.est.Initialized {
		t.Error("reset did not clear the track")
	}
}

func TestSameTimeUpdate(t *testing.T) {
	// Two measurements at the same timestamp: second one corrects but must
	// not divide by zero.
	tr := mustTracker(t, DefaultConfig())
	tr.Update(geom.Vec3{X: 0}, geom.Vec3{X: 1}, 0)
	est := tr.Update(geom.Vec3{X: 2}, geom.Vec3{X: 1}, 0)
	if math.IsNaN(est.Pos.X) || math.IsNaN(est.Vel.X) {
		t.Fatal("NaN after same-time update")
	}
}
