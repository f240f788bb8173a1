package sim

import (
	"math"
	"sync"
	"testing"

	"acasxval/internal/acasx"
	"acasxval/internal/encounter"
	"acasxval/internal/geom"
	"acasxval/internal/uav"
)

var (
	tableOnce sync.Once
	testTable *acasx.Table
	tableErr  error
)

func getTable(tb testing.TB) *acasx.Table {
	tb.Helper()
	tableOnce.Do(func() {
		cfg := acasx.DefaultConfig()
		cfg.Workers = 8
		testTable, tableErr = acasx.BuildTable(cfg)
	})
	if tableErr != nil {
		tb.Fatal(tableErr)
	}
	return testTable
}

func TestClock(t *testing.T) {
	c := Clock{dt: 0.5}
	if c.Now() != 0 {
		t.Error("fresh clock state wrong")
	}
	if got := c.Tick(); got != 0.5 {
		t.Errorf("Tick = %v", got)
	}
	c.Reset()
	if c.Now() != 0 || c.Tick() != 0.5 {
		t.Error("Reset must rewind the time and keep the step")
	}
}

func TestProximityMeasurer(t *testing.T) {
	var p ProximityMeasurer
	p.Reset()
	if p.seen {
		t.Error("fresh measurer claims observations")
	}
	p.Observe(0, geom.Vec3{}, geom.Vec3{X: 100, Z: 50})
	p.Observe(1, geom.Vec3{}, geom.Vec3{X: 30, Z: 80})
	if got := p.MinHorizontal(); got != 30 {
		t.Errorf("MinHorizontal = %v, want 30", got)
	}
	if got := p.MinVertical(); got != 50 {
		t.Errorf("MinVertical = %v, want 50 (independent minimum)", got)
	}
	min3d, at := p.Min3D()
	if want := math.Hypot(30, 80); math.Abs(min3d-want) > 1e-9 {
		t.Errorf("Min3D = %v, want %v", min3d, want)
	}
	if at != 1 {
		t.Errorf("Min3D time = %v, want 1", at)
	}
}

func TestAccidentDetector(t *testing.T) {
	var d AccidentDetector
	d.Reset()
	// Close horizontally but far vertically: no NMAC.
	d.Observe(1, geom.Vec3{}, geom.Vec3{X: 10, Z: 100})
	if nmac, _ := d.NMAC(); nmac {
		t.Error("vertical separation ignored")
	}
	// Inside the cylinder.
	d.Observe(2, geom.Vec3{}, geom.Vec3{X: 100, Z: 10})
	nmac, at := d.NMAC()
	if !nmac || at != 2 {
		t.Errorf("NMAC = %v at %v", nmac, at)
	}
	// First detection is sticky.
	d.Observe(3, geom.Vec3{}, geom.Vec3{X: 1, Z: 1})
	if _, at := d.NMAC(); at != 2 {
		t.Error("NMAC time overwritten")
	}
}

func TestRunConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*RunConfig)
	}{
		{"dt", func(c *RunConfig) { c.Dt = 0 }},
		{"decision period", func(c *RunConfig) { c.DecisionPeriod = 0.01 }},
		{"overtime", func(c *RunConfig) { c.Overtime = -1 }},
		{"own uav", func(c *RunConfig) { c.OwnUAV.VerticalAccel = -1 }},
		{"sensor", func(c *RunConfig) { c.Sensor.DropRate = 2 }},
		{"tracker", func(c *RunConfig) { c.Tracker.Alpha = 5 }},
		{"substeps", func(c *RunConfig) { c.MonitorSubSteps = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultRunConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("expected validation error")
			}
			if _, err := RunEncounter(encounter.PresetHeadOn(), NoSystem{}, NoSystem{}, cfg, 1); err == nil {
				t.Error("RunEncounter should reject invalid config")
			}
		})
	}
	if err := DefaultRunConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

// TestUnequippedHeadOnCollides: the generator guarantees a conflict; with
// no avoidance and no disturbance the head-on preset must produce an NMAC.
func TestUnequippedHeadOnCollides(t *testing.T) {
	cfg := DefaultRunConfig()
	// Disable disturbance for determinism.
	cfg.OwnUAV.VerticalNoise, cfg.OwnUAV.SpeedNoise, cfg.OwnUAV.HeadingNoise = 0, 0, 0
	cfg.IntruderUAV = cfg.OwnUAV
	cfg.Sensor = uav.SensorModel{}
	res, err := RunEncounter(encounter.PresetHeadOn(), NoSystem{}, NoSystem{}, cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !res.NMAC {
		t.Fatalf("unequipped head-on did not collide: min sep %v", res.MinSeparation)
	}
	// The NMAC should occur near the nominal CPA time (30 s).
	if math.Abs(res.NMACTime-30) > 5 {
		t.Errorf("NMAC at %v, want ~30", res.NMACTime)
	}
	if res.MinSeparation > 5 {
		t.Errorf("min separation %v, want ~0", res.MinSeparation)
	}
	if res.Alerted() {
		t.Error("unequipped aircraft alerted")
	}
}

// TestEquippedHeadOnAvoids is the Fig. 5 reproduction at unit-test scale:
// both aircraft equipped and coordinating resolve the conflict.
func TestEquippedHeadOnAvoids(t *testing.T) {
	table := getTable(t)
	cfg := DefaultRunConfig()
	res, err := RunEncounter(encounter.PresetHeadOn(), NewACASXU(table), NewACASXU(table), cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.NMAC {
		t.Fatalf("equipped head-on collided (min sep %v)", res.MinSeparation)
	}
	if !res.Alerted() {
		t.Error("equipped head-on never alerted")
	}
	if res.OwnAlertTime < 0 {
		t.Error("own alert time not recorded")
	}
	if res.MinSeparation < geom.NMACVertical {
		t.Errorf("min separation %v suspiciously small", res.MinSeparation)
	}
}

// TestCoordinationComplementarySenses: in a coordinated symmetric head-on,
// the two aircraft must claim opposite senses once both alert.
func TestCoordinationComplementarySenses(t *testing.T) {
	table := getTable(t)
	cfg := DefaultRunConfig()
	cfg.RecordTrajectory = true
	res, err := RunEncounter(encounter.PresetHeadOn(), NewACASXU(table), NewACASXU(table), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	sawBoth := false
	for _, pt := range res.Trajectory {
		if pt.OwnSense != SenseNone && pt.IntruderSense != SenseNone {
			sawBoth = true
			if pt.OwnSense == pt.IntruderSense {
				t.Fatalf("same-sense maneuvers at t=%v with coordination on", pt.T)
			}
		}
	}
	if !sawBoth {
		t.Skip("both aircraft never alerted simultaneously in this seed")
	}
}

func TestDeterminismUnderSeed(t *testing.T) {
	table := getTable(t)
	cfg := DefaultRunConfig()
	a, err := RunEncounter(encounter.PresetCrossing(), NewACASXU(table), NewACASXU(table), cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEncounter(encounter.PresetCrossing(), NewACASXU(table), NewACASXU(table), cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.MinSeparation != b.MinSeparation || a.NMAC != b.NMAC || a.OwnAlerts() != b.OwnAlerts() {
		t.Errorf("same seed, different results: %+v vs %+v", a, b)
	}
	c, err := RunEncounter(encounter.PresetCrossing(), NewACASXU(table), NewACASXU(table), cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a.MinSeparation == c.MinSeparation {
		t.Error("different seeds produced identical minimum separation (noise not applied?)")
	}
}

func TestTrajectoryRecording(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.RecordTrajectory = true
	p := encounter.PresetHeadOn()
	res, err := RunEncounter(p, NoSystem{}, NoSystem{}, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := int((p.TimeToCPA+cfg.Overtime)/cfg.Dt) + 1
	if len(res.Trajectory) < wantPoints-2 || len(res.Trajectory) > wantPoints+2 {
		t.Errorf("trajectory has %d points, want ~%d", len(res.Trajectory), wantPoints)
	}
	if res.Trajectory[0].T != 0 {
		t.Error("trajectory does not start at t=0")
	}
	// Times strictly increase.
	for i := 1; i < len(res.Trajectory); i++ {
		if res.Trajectory[i].T <= res.Trajectory[i-1].T {
			t.Fatal("trajectory times not increasing")
		}
	}
}

func TestNoTrajectoryByDefault(t *testing.T) {
	res, err := RunEncounter(encounter.PresetHeadOn(), NoSystem{}, NoSystem{}, DefaultRunConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trajectory != nil {
		t.Error("trajectory recorded without RecordTrajectory")
	}
}

// TestSensorDropoutFailureInjection: with 100% message drop the equipped
// aircraft is blind and must behave like an unequipped one.
func TestSensorDropoutFailureInjection(t *testing.T) {
	table := getTable(t)
	cfg := DefaultRunConfig()
	cfg.Sensor.DropRate = 1
	cfg.OwnUAV.VerticalNoise, cfg.OwnUAV.SpeedNoise, cfg.OwnUAV.HeadingNoise = 0, 0, 0
	cfg.IntruderUAV = cfg.OwnUAV
	res, err := RunEncounter(encounter.PresetHeadOn(), NewACASXU(table), NewACASXU(table), cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Alerted() {
		t.Error("blind aircraft alerted")
	}
	if !res.NMAC {
		t.Error("blind head-on should collide")
	}
}

// TestTrackerCoastsThroughDropouts: with partial dropouts the tracker keeps
// a usable track and the conflict is still resolved.
func TestTrackerCoastsThroughDropouts(t *testing.T) {
	table := getTable(t)
	cfg := DefaultRunConfig()
	cfg.Sensor.DropRate = 0.3
	res, err := RunEncounter(encounter.PresetHeadOn(), NewACASXU(table), NewACASXU(table), cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Alerted() {
		t.Error("aircraft never alerted despite 70% message reception")
	}
	if res.NMAC {
		t.Error("NMAC despite tracker coasting")
	}
}

func TestNoSystemDecision(t *testing.T) {
	d := NoSystem{}.Decide(0, uav.State{}, geom.Vec3{}, geom.Vec3{}, Constraint{})
	if d.HasCmd || d.Alerting || d.Sense != SenseNone {
		t.Errorf("NoSystem decision = %+v", d)
	}
}

func TestSampleSeparationFine(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Dt = 1
	cfg.MonitorSubSteps = 4
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Own flies from the origin to X=10 over one step while the intruder
	// stays put: the first sub-sample (f=1/4 at t=10.25) is the closest.
	r.k = 1
	r.posBefore[0], r.posBefore[1] = geom.Vec3{}, geom.Vec3{}
	r.fleet[0].vehicle.Reset(uav.State{Pos: geom.Vec3{X: 10}})
	r.fleet[1].vehicle.Reset(uav.State{})
	r.sampleSeparationFine(10)
	min, at := r.prox.Min3D()
	if math.Abs(min-2.5) > 1e-9 || math.Abs(at-10.25) > 1e-9 {
		t.Errorf("min separation %v at %v, want 2.5 at 10.25", min, at)
	}
	// Degenerate substeps fall back to one sample at the end of the step.
	cfg.MonitorSubSteps = 0
	r2, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2.k = 1
	r2.posBefore[0], r2.posBefore[1] = geom.Vec3{}, geom.Vec3{}
	r2.fleet[0].vehicle.Reset(uav.State{Pos: geom.Vec3{X: 3}})
	r2.fleet[1].vehicle.Reset(uav.State{})
	r2.sampleSeparationFine(0)
	if min, at := r2.prox.Min3D(); min != 3 || at != 1 {
		t.Errorf("degenerate substeps min %v at %v, want 3 at 1", min, at)
	}
}

func BenchmarkRunEncounterEquipped(b *testing.B) {
	table := getTable(b)
	cfg := DefaultRunConfig()
	p := encounter.PresetHeadOn()
	own := NewACASXU(table)
	intr := NewACASXU(table)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunEncounter(p, own, intr, cfg, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
