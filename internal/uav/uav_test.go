package uav

import (
	"math"
	"testing"

	"acasxval/internal/geom"
	"acasxval/internal/stats"
)

func newTestUAV(t *testing.T, st State) *UAV {
	t.Helper()
	u, err := New(DefaultConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero accel", func(c *Config) { c.VerticalAccel = 0 }},
		{"weak strengthen", func(c *Config) { c.StrengthenAccel = c.VerticalAccel / 2 }},
		{"zero max rate", func(c *Config) { c.MaxVerticalRate = 0 }},
		{"negative delay", func(c *Config) { c.ResponseDelay = -1 }},
		{"negative noise", func(c *Config) { c.VerticalNoise = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("expected validation error")
			}
			if _, err := New(cfg, State{}); err == nil {
				t.Error("New should reject invalid config")
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestStraightFlightDeterministic(t *testing.T) {
	st := State{
		Pos: geom.Vec3{X: 0, Y: 0, Z: 1000},
		Vel: geom.Velocity{Gs: 50, Psi: 0, Vs: 0},
	}
	u := newTestUAV(t, st)
	for i := 0; i < 10; i++ {
		u.Step(1, nil)
	}
	got := u.State().Pos
	want := geom.Vec3{X: 500, Y: 0, Z: 1000}
	if got.DistanceTo(want) > 1e-9 {
		t.Errorf("position after 10 s = %v, want %v", got, want)
	}
}

func TestClimbCommandCapture(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResponseDelay = 0
	u, err := New(cfg, State{Vel: geom.Velocity{Gs: 50, Vs: 0}})
	if err != nil {
		t.Fatal(err)
	}
	target := geom.FPM(1500)
	u.Command(Command{HasVS: true, TargetVS: target})
	// With a = g/4 ~ 2.45 m/s^2, capturing 7.62 m/s takes ~3.1 s.
	for i := 0; i < 50; i++ {
		u.Step(0.1, nil)
	}
	if vs := u.State().Vel.Vs; math.Abs(vs-target) > 1e-9 {
		t.Errorf("vs after capture = %v, want %v", vs, target)
	}
	// Acceleration must be bounded: after one 0.1 s step from level the
	// rate change is at most a*dt.
	u2, _ := New(cfg, State{Vel: geom.Velocity{Gs: 50, Vs: 0}})
	u2.Command(Command{HasVS: true, TargetVS: target})
	u2.Step(0.1, nil)
	if vs := u2.State().Vel.Vs; vs > cfg.VerticalAccel*0.1+1e-9 {
		t.Errorf("vs after one step = %v exceeds accel bound %v", vs, cfg.VerticalAccel*0.1)
	}
}

func TestResponseDelayDefersManeuver(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResponseDelay = 2
	u, err := New(cfg, State{Vel: geom.Velocity{Gs: 50, Vs: 0}})
	if err != nil {
		t.Fatal(err)
	}
	u.Command(Command{HasVS: true, TargetVS: geom.FPM(1500)})
	if u.Maneuvering() {
		t.Error("maneuvering before delay elapsed")
	}
	u.Step(1, nil)
	if vs := u.State().Vel.Vs; vs != 0 {
		t.Errorf("vs during response delay = %v, want 0", vs)
	}
	u.Step(1, nil) // delay now elapsed
	u.Step(1, nil)
	if !u.Maneuvering() {
		t.Error("not maneuvering after delay")
	}
	if vs := u.State().Vel.Vs; vs <= 0 {
		t.Errorf("vs after delay = %v, want > 0", vs)
	}
}

func TestCommandTransitionKeepsCompliance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResponseDelay = 1
	u, err := New(cfg, State{Vel: geom.Velocity{Gs: 50, Vs: 0}})
	if err != nil {
		t.Fatal(err)
	}
	u.Command(Command{HasVS: true, TargetVS: geom.FPM(1500)})
	for i := 0; i < 30; i++ {
		u.Step(0.1, nil)
	}
	if !u.Maneuvering() {
		t.Fatal("should be maneuvering")
	}
	// Strengthening must not restart the response delay.
	u.Command(Command{HasVS: true, TargetVS: geom.FPM(2500), Strengthen: true})
	if !u.Maneuvering() {
		t.Error("strengthen restarted the response delay")
	}
	vsBefore := u.State().Vel.Vs
	u.Step(0.5, nil)
	if u.State().Vel.Vs <= vsBefore {
		t.Error("strengthened command not increasing vertical rate")
	}
}

func TestReissuingSameCommandIsIdempotent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResponseDelay = 1
	u, err := New(cfg, State{Vel: geom.Velocity{Gs: 50, Vs: 0}})
	if err != nil {
		t.Fatal(err)
	}
	cmd := Command{HasVS: true, TargetVS: geom.FPM(1500)}
	u.Command(cmd)
	u.Step(0.6, nil)
	u.Command(cmd) // must not reset the remaining 0.4 s delay
	u.Step(0.6, nil)
	if !u.Maneuvering() {
		t.Error("re-issuing an identical command reset the response delay")
	}
}

func TestClearCommandReturnsToPlan(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResponseDelay = 0
	plan := geom.Velocity{Gs: 50, Vs: geom.FPM(-500)}
	u, err := New(cfg, State{Vel: plan})
	if err != nil {
		t.Fatal(err)
	}
	u.Command(Command{HasVS: true, TargetVS: geom.FPM(1500)})
	for i := 0; i < 60; i++ {
		u.Step(0.1, nil)
	}
	u.ClearCommand()
	if u.hasCmd {
		t.Error("command still active after clear")
	}
	for i := 0; i < 100; i++ {
		u.Step(0.1, nil)
	}
	if vs := u.State().Vel.Vs; math.Abs(vs-plan.Vs) > 1e-9 {
		t.Errorf("vs after clear = %v, want plan %v", vs, plan.Vs)
	}
}

func TestVerticalRateLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResponseDelay = 0
	u, err := New(cfg, State{Vel: geom.Velocity{Gs: 50}})
	if err != nil {
		t.Fatal(err)
	}
	u.Command(Command{HasVS: true, TargetVS: 100}) // far beyond the limit
	for i := 0; i < 300; i++ {
		u.Step(0.1, nil)
	}
	if vs := u.State().Vel.Vs; vs > cfg.MaxVerticalRate+1e-9 {
		t.Errorf("vs = %v exceeds limit %v", vs, cfg.MaxVerticalRate)
	}
}

func TestGroundSpeedNeverNegative(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SpeedNoise = 50 // absurd gusts
	u, err := New(cfg, State{Vel: geom.Velocity{Gs: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(8)
	for i := 0; i < 1000; i++ {
		u.Step(1, rng)
		if u.State().Vel.Gs < 0 {
			t.Fatal("negative ground speed")
		}
	}
}

func TestZeroDtIsNoop(t *testing.T) {
	u := newTestUAV(t, State{Pos: geom.Vec3{X: 1}, Vel: geom.Velocity{Gs: 10}})
	before := u.State()
	u.Step(0, stats.NewRNG(1))
	u.Step(-1, stats.NewRNG(1))
	if u.State() != before {
		t.Error("non-positive dt changed state")
	}
}

func TestDisturbanceIsUnbiased(t *testing.T) {
	cfg := DefaultConfig()
	var acc stats.Accumulator
	for trial := 0; trial < 200; trial++ {
		u, err := New(cfg, State{Vel: geom.Velocity{Gs: 50, Vs: 0}})
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewChildRNG(77, trial)
		for i := 0; i < 60; i++ {
			u.Step(1, rng)
		}
		acc.Add(u.State().Pos.Z)
	}
	// Mean altitude drift over 60 s should be near zero relative to spread.
	stderr := acc.StdDev() / math.Sqrt(float64(acc.N()))
	if math.Abs(acc.Mean()) > 4*stderr+1 {
		t.Errorf("disturbance biased: mean z drift %v (stderr %v)", acc.Mean(), stderr)
	}
	if acc.StdDev() == 0 {
		t.Error("disturbance produced no spread at all")
	}
}

func TestSensorModelValidate(t *testing.T) {
	if err := DefaultSensorModel().Validate(); err != nil {
		t.Errorf("default sensor model invalid: %v", err)
	}
	bad := SensorModel{HorizontalPosSigma: -1}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for negative sigma")
	}
	bad2 := SensorModel{DropRate: 1.5}
	if err := bad2.Validate(); err == nil {
		t.Error("expected error for drop rate > 1")
	}
}

func TestObserveNoiseless(t *testing.T) {
	st := State{Pos: geom.Vec3{X: 1, Y: 2, Z: 3}, Vel: geom.Velocity{Gs: 10, Psi: 0, Vs: 1}}
	rep := DefaultSensorModel().Observe(st, 5, nil)
	if !rep.Valid {
		t.Fatal("noiseless report invalid")
	}
	if rep.Pos != st.Pos {
		t.Errorf("pos = %v, want %v", rep.Pos, st.Pos)
	}
	if rep.Time != 5 {
		t.Errorf("time = %v", rep.Time)
	}
}

func TestObserveNoiseStatistics(t *testing.T) {
	m := SensorModel{HorizontalPosSigma: 10, VerticalPosSigma: 4, VelSigma: 0.5}
	st := State{Pos: geom.Vec3{}, Vel: geom.Velocity{Gs: 50}}
	rng := stats.NewRNG(3)
	var xErr, zErr stats.Accumulator
	for i := 0; i < 20000; i++ {
		rep := m.Observe(st, 0, rng)
		xErr.Add(rep.Pos.X)
		zErr.Add(rep.Pos.Z)
	}
	if math.Abs(xErr.StdDev()-10) > 0.5 {
		t.Errorf("horizontal error sd = %v, want ~10", xErr.StdDev())
	}
	if math.Abs(zErr.StdDev()-4) > 0.2 {
		t.Errorf("vertical error sd = %v, want ~4", zErr.StdDev())
	}
	if math.Abs(xErr.Mean()) > 0.3 {
		t.Errorf("horizontal error mean = %v, want ~0", xErr.Mean())
	}
}

func TestObserveDropRate(t *testing.T) {
	m := SensorModel{DropRate: 0.25}
	rng := stats.NewRNG(4)
	dropped := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if !m.Observe(State{}, 0, rng).Valid {
			dropped++
		}
	}
	got := float64(dropped) / n
	if math.Abs(got-0.25) > 0.02 {
		t.Errorf("drop rate = %v, want ~0.25", got)
	}
}

func BenchmarkStep(b *testing.B) {
	u, err := New(DefaultConfig(), State{Vel: geom.Velocity{Gs: 50}})
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u.Step(1, rng)
	}
}
