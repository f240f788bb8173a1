package acasx

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"acasxval/internal/geom"
	"acasxval/internal/mdp"
	"acasxval/internal/uav"
)

// tinyConfig is small enough for the tabular differential oracle.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Grid.NumH = 9
	cfg.Grid.NumRate = 3
	cfg.Grid.Horizon = 6
	return cfg
}

// sharedCoarseTable builds the coarse table once for the whole test
// package.
var (
	coarseOnce  sync.Once
	coarseTable *Table
	coarseErr   error
)

func getCoarseTable(t testing.TB) *Table {
	t.Helper()
	coarseOnce.Do(func() {
		cfg := CoarseConfig()
		cfg.Workers = 4
		coarseTable, coarseErr = BuildTable(cfg)
	})
	if coarseErr != nil {
		t.Fatal(coarseErr)
	}
	return coarseTable
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"HMax", func(c *Config) { c.Grid.HMax = 0 }},
		{"NumH even", func(c *Config) { c.Grid.NumH = 10 }},
		{"NumH small", func(c *Config) { c.Grid.NumH = 1 }},
		{"RateMax", func(c *Config) { c.Grid.RateMax = 0 }},
		{"RateMax below advisory", func(c *Config) { c.Grid.RateMax = geom.FPM(1000) }},
		{"NumRate", func(c *Config) { c.Grid.NumRate = 4 }},
		{"Horizon", func(c *Config) { c.Grid.Horizon = 0 }},
		{"Dt", func(c *Config) { c.Dynamics.Dt = 0 }},
		{"neg sigma", func(c *Config) { c.Dynamics.OwnAccelSigma = -1 }},
		{"accel", func(c *Config) { c.Dynamics.Accel = 0 }},
		{"strengthen accel", func(c *Config) { c.Dynamics.StrengthenAccel = 0.1 }},
		{"collision", func(c *Config) { c.Cost.Collision = 0 }},
		{"neg cost", func(c *Config) { c.Cost.NewAlert = -1 }},
		{"nmac", func(c *Config) { c.Cost.NMACVertical = 0 }},
		{"nmac above hmax", func(c *Config) { c.Cost.NMACVertical = c.Grid.HMax * 2 }},
		{"dmod", func(c *Config) { c.DMOD = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("expected validation error")
			}
			if _, err := BuildTable(cfg); err == nil {
				t.Error("BuildTable should reject invalid config")
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := CoarseConfig().Validate(); err != nil {
		t.Errorf("coarse config invalid: %v", err)
	}
}

// advisories lists all advisories in index order.
func advisories() []Advisory {
	return []Advisory{COC, Climb1500, Descend1500, StrengthenClimb2500, StrengthenDescend2500}
}

// mirror returns the advisory with the opposite sense (COC mirrors to
// itself). The offline model is symmetric under h -> -h with senses
// swapped; the symmetry tests exploit this.
func mirror(a Advisory) Advisory {
	switch a {
	case Climb1500:
		return Descend1500
	case Descend1500:
		return Climb1500
	case StrengthenClimb2500:
		return StrengthenDescend2500
	case StrengthenDescend2500:
		return StrengthenClimb2500
	default:
		return a
	}
}

func TestAdvisoryProperties(t *testing.T) {
	if len(advisories()) != NumAdvisories {
		t.Fatal("advisory list size mismatch")
	}
	for _, a := range advisories() {
		if !a.Valid() {
			t.Errorf("%v invalid", a)
		}
		// mirror is an involution and flips the sense.
		if mirror(mirror(a)) != a {
			t.Errorf("mirror not an involution for %v", a)
		}
		if a.Sense() != SenseNone && mirror(a).Sense() != -a.Sense() {
			t.Errorf("mirror of %v does not flip sense", a)
		}
		if a.Sense() == SenseUp && a.TargetRate() <= 0 {
			t.Errorf("%v has non-positive target rate", a)
		}
		if a.Sense() == SenseDown && a.TargetRate() >= 0 {
			t.Errorf("%v has non-negative target rate", a)
		}
	}
	if COC.TargetRate() != 0 || COC.Sense() != SenseNone || COC.Strengthened() {
		t.Error("COC properties wrong")
	}
	if !StrengthenClimb2500.Strengthened() || !StrengthenDescend2500.Strengthened() {
		t.Error("strengthened flags wrong")
	}
	if Advisory(99).Valid() {
		t.Error("out-of-range advisory claims valid")
	}
	if Climb1500.String() != "CL1500" || Advisory(99).String() == "" {
		t.Error("advisory names wrong")
	}
}

func TestSenseMask(t *testing.T) {
	none := SenseMask{}
	for _, a := range advisories() {
		if !none.Allows(a) {
			t.Errorf("empty mask bans %v", a)
		}
	}
	up := SenseMask{BanUp: true}
	if up.Allows(Climb1500) || up.Allows(StrengthenClimb2500) {
		t.Error("BanUp does not ban climbs")
	}
	if !up.Allows(Descend1500) || !up.Allows(COC) {
		t.Error("BanUp bans too much")
	}
}

func TestEventCosts(t *testing.T) {
	m, err := newModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	k := m.cfg.Cost
	if got := m.eventCost(COC, COC); got != 0 {
		t.Errorf("COC->COC cost = %v", got)
	}
	if got := m.eventCost(COC, Climb1500); got != -(k.NewAlert + k.ActivePerStep) {
		t.Errorf("new alert cost = %v", got)
	}
	if got := m.eventCost(Climb1500, Climb1500); got != -k.ActivePerStep {
		t.Errorf("maintain cost = %v", got)
	}
	if got := m.eventCost(Climb1500, Descend1500); got != -(k.ActivePerStep + k.Reversal) {
		t.Errorf("reversal cost = %v", got)
	}
	if got := m.eventCost(Climb1500, StrengthenClimb2500); got != -(k.ActivePerStep + k.Strengthen) {
		t.Errorf("strengthen cost = %v", got)
	}
	// Reversal directly to a strengthened opposite advisory costs reversal
	// (not strengthen: sense changed).
	if got := m.eventCost(Climb1500, StrengthenDescend2500); got != -(k.ActivePerStep + k.Reversal) {
		t.Errorf("reversal-strengthen cost = %v", got)
	}
	// Dropping an advisory is free.
	if got := m.eventCost(StrengthenClimb2500, COC); got != 0 {
		t.Errorf("drop cost = %v", got)
	}
}

func TestTerminalValues(t *testing.T) {
	m, err := newModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	v := m.terminalValues()
	// h axis for NumH=9, HMax=304.8: spacing 76.2 m; only h=0 is inside
	// the 30.48 m NMAC band.
	hAxis := m.grid.Axis(0)
	for hi, h := range hAxis {
		inside := math.Abs(h) <= m.cfg.Cost.NMACVertical
		for ra := 0; ra < NumAdvisories; ra++ {
			for j := 0; j < m.grid.AxisLen(1)*m.grid.AxisLen(2); j++ {
				idx := ra*m.contSize + hi*m.grid.AxisLen(1)*m.grid.AxisLen(2) + j
				want := 0.0
				if inside {
					want = -m.cfg.Cost.Collision
				}
				if v[idx] != want {
					t.Fatalf("terminal value at h=%v ra=%d = %v, want %v", h, ra, v[idx], want)
				}
			}
		}
	}
}

// TestBuilderMatchesGenericSolver is the differential oracle: the
// specialized backward-induction builder must agree with the generic
// finite-horizon MDP solver on the tau-expanded tabular problem.
func TestBuilderMatchesGenericSolver(t *testing.T) {
	cfg := tinyConfig()
	table, err := BuildTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	problem, m, err := tauExpandedProblem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := mdp.ValidateProblem(problem, 1e-9); err != nil {
		t.Fatalf("tau-expanded problem invalid: %v", err)
	}
	// Solve with undiscounted value iteration: all paths reach tau=0, so
	// this converges and V(k*stateSize + s) must equal the builder's
	// optimal value at slice k.
	sol, err := mdp.ValueIteration(problem, mdp.Options{
		Discount:      1,
		Tolerance:     1e-9,
		MaxIterations: cfg.Grid.Horizon + 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Fatal("generic solver did not converge")
	}
	for k := 0; k <= cfg.Grid.Horizon; k++ {
		for c := 0; c < m.contSize; c++ {
			pt := m.grid.Point(c)
			for ra := 0; ra < NumAdvisories; ra++ {
				s := m.stateIndex(c, Advisory(ra))
				want := sol.Values[k*m.stateSize+s]
				got := math.Inf(-1)
				for a := 0; a < NumAdvisories; a++ {
					q := table.QValue(float64(k), pt[0], pt[1], pt[2], Advisory(ra), Advisory(a))
					if q > got {
						got = q
					}
				}
				if k == 0 {
					// Slice 0 stores terminal values directly.
					got = table.QValue(0, pt[0], pt[1], pt[2], Advisory(ra), COC)
				}
				if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
					t.Fatalf("k=%d c=%d ra=%d: builder %v vs generic %v", k, c, ra, got, want)
				}
			}
		}
	}
}

// TestMirrorSymmetry: the model is symmetric under (h, dh0, dh1) ->
// (-h, -dh0, -dh1) with advisory senses swapped.
func TestMirrorSymmetry(t *testing.T) {
	table := getCoarseTable(t)
	states := []struct{ h, dh0, dh1 float64 }{
		{50, 2, -3},
		{120, -5, 5},
		{10, 0, 1},
		{-80, 7, 7},
	}
	for _, s := range states {
		for tau := 2.0; tau <= 20; tau += 6 {
			for _, ra := range advisories() {
				for _, a := range advisories() {
					q1 := table.QValue(tau, s.h, s.dh0, s.dh1, ra, a)
					q2 := table.QValue(tau, -s.h, -s.dh0, -s.dh1, mirror(ra), mirror(a))
					if math.Abs(q1-q2) > 1e-6*(1+math.Abs(q1)) {
						t.Fatalf("mirror symmetry violated at h=%v tau=%v ra=%v a=%v: %v vs %v",
							s.h, tau, ra, a, q1, q2)
					}
				}
			}
		}
	}
}

func TestParallelBuildMatchesSerial(t *testing.T) {
	cfg := tinyConfig()
	serial, err := BuildTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	parallel, err := BuildTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := range serial.q {
		for i := range serial.q[k] {
			if serial.q[k][i] != parallel.q[k][i] {
				t.Fatalf("slice %d entry %d: serial %v != parallel %v",
					k, i, serial.q[k][i], parallel.q[k][i])
			}
		}
	}
}

// TestValuesMonotoneInThreatProximity: with more time to react (larger
// tau), the situation cannot be worse.
func TestValueImprovesWithTau(t *testing.T) {
	table := getCoarseTable(t)
	// Co-altitude, level flight: the canonical imminent threat.
	v5 := table.Value(5, 0, 0, 0, COC)
	v15 := table.Value(15, 0, 0, 0, COC)
	v24 := table.Value(24, 0, 0, 0, COC)
	if !(v24 >= v15 && v15 >= v5) {
		t.Errorf("value not improving with tau: v5=%v v15=%v v24=%v", v5, v15, v24)
	}
}

// TestSafeStateValueNearZero: with a huge altitude gap the optimal plan is
// no alert and the value is ~0.
func TestSafeStateValueNearZero(t *testing.T) {
	table := getCoarseTable(t)
	v := table.Value(20, table.cfg.Grid.HMax, 0, 0, COC)
	if v < -table.cfg.Cost.NewAlert {
		t.Errorf("safe state value = %v, want near 0", v)
	}
	best, _ := table.BestAdvisory(20, table.cfg.Grid.HMax, 0, 0, COC, SenseMask{})
	if best != COC {
		t.Errorf("safe state advisory = %v, want COC", best)
	}
}

// TestThreatTriggersAdvisory: co-altitude level threat at moderate tau must
// alert, and the advisory must open separation.
func TestThreatTriggersAdvisory(t *testing.T) {
	table := getCoarseTable(t)
	best, ok := table.BestAdvisory(10, 0, 0, 0, COC, SenseMask{})
	if !ok {
		t.Fatal("no advisory found")
	}
	if best == COC {
		t.Errorf("imminent co-altitude threat yields COC")
	}
}

// TestCoordinationMaskRestrictsSense: with climbs banned the logic must
// pick a descend-sense advisory for a symmetric threat.
func TestCoordinationMaskRestrictsSense(t *testing.T) {
	table := getCoarseTable(t)
	best, ok := table.BestAdvisory(10, 0, 0, 0, COC, SenseMask{BanUp: true})
	if !ok {
		t.Fatal("no advisory found")
	}
	if best.Sense() == SenseUp {
		t.Errorf("mask violated: %v", best)
	}
	// Fully banned: only COC remains.
	best, ok = table.BestAdvisory(10, 0, 0, 0, COC, SenseMask{BanUp: true, BanDown: true})
	if !ok || best != COC {
		t.Errorf("with both senses banned got %v (ok=%v), want COC", best, ok)
	}
}

// TestAdvisorySenseMatchesGeometry: intruder well above own-ship -> descend
// is preferred over climb; and mirrored.
func TestAdvisorySenseMatchesGeometry(t *testing.T) {
	table := getCoarseTable(t)
	h := geom.Feet(300) // intruder 300 ft above
	qDes := table.QValue(12, h, 0, 0, COC, Descend1500)
	qCl := table.QValue(12, h, 0, 0, COC, Climb1500)
	if qDes <= qCl {
		t.Errorf("intruder above: Q(DES)=%v <= Q(CL)=%v", qDes, qCl)
	}
	qDes2 := table.QValue(12, -h, 0, 0, COC, Descend1500)
	qCl2 := table.QValue(12, -h, 0, 0, COC, Climb1500)
	if qCl2 <= qDes2 {
		t.Errorf("intruder below: Q(CL)=%v <= Q(DES)=%v", qCl2, qDes2)
	}
}

func TestQValueClampsTauAndInvalidAdvisories(t *testing.T) {
	table := getCoarseTable(t)
	if got := table.QValue(-5, 0, 0, 0, COC, COC); got != table.QValue(0, 0, 0, 0, COC, COC) {
		t.Error("negative tau not clamped to 0")
	}
	if got := table.QValue(1e9, 0, 0, 0, COC, COC); got != table.QValue(float64(table.Horizon()), 0, 0, 0, COC, COC) {
		t.Error("huge tau not clamped to horizon")
	}
	if got := table.QValue(5, 0, 0, 0, Advisory(17), COC); !math.IsInf(got, -1) {
		t.Error("invalid ra should yield -inf")
	}
}

func TestLogicLifecycle(t *testing.T) {
	table := getCoarseTable(t)
	logic := NewLogic(table)

	// Head-on geometry: own at origin heading +X at 50 m/s; intruder
	// 1.2 km ahead closing at 50 m/s, co-altitude.
	own := uav.State{
		Pos: geom.Vec3{X: 0, Y: 0, Z: 1000},
		Vel: geom.Velocity{Gs: 50, Psi: 0, Vs: 0},
	}
	intrPos := geom.Vec3{X: 1200, Y: 0, Z: 1000}
	intrVel := geom.Vec3{X: -50, Y: 0, Z: 0}

	d := logic.Decide(own, intrPos, intrVel, SenseMask{})
	// tau = (1200 - 152.4)/100 ~ 10.5 s: well inside the coarse table's
	// alerting region (alerts begin around tau = 16 for co-altitude
	// threats).
	if d.Tau > 12 || d.Tau < 9 {
		t.Errorf("tau = %v, want ~10.5", d.Tau)
	}
	if !d.Alerting {
		t.Error("head-on threat did not alert")
	}
	if !d.NewAlert {
		t.Error("first alert not flagged as new")
	}
	if logic.alerts != 1 {
		t.Errorf("alert count = %d", logic.alerts)
	}
	cmd, ok := d.Command()
	if !ok {
		t.Fatal("alerting decision has no command")
	}
	if cmd.TargetVS == 0 {
		t.Error("command target rate zero")
	}

	// Far-away traffic: COC.
	logic.Reset()
	if logic.Advisory() != COC {
		t.Error("reset did not clear advisory")
	}
	d2 := logic.Decide(own, geom.Vec3{X: 50000, Y: 0, Z: 1000}, intrVel, SenseMask{})
	if d2.Alerting {
		t.Error("distant traffic triggered alert")
	}
	if _, ok := d2.Command(); ok {
		t.Error("COC decision produced a command")
	}

	// Diverging traffic: tau unbounded, COC.
	d3 := logic.Decide(own, geom.Vec3{X: -2000, Y: 0, Z: 1000}, geom.Vec3{X: -50}, SenseMask{})
	if d3.Tau != geom.TauUnbounded || d3.Alerting {
		t.Error("diverging traffic should be COC with unbounded tau")
	}
}

func TestLogicReversalAccounting(t *testing.T) {
	table := getCoarseTable(t)
	logic := NewLogic(table)
	own := uav.State{Vel: geom.Velocity{Gs: 50}}
	// Force an alert with the intruder slightly above: expect descend.
	d1 := logic.Decide(own, geom.Vec3{X: 1200, Z: 30}, geom.Vec3{X: -50}, SenseMask{})
	if d1.Advisory.Sense() == SenseNone {
		t.Skip("coarse table did not alert in this geometry")
	}
	// Now ban that sense (coordination flip) and push geometry the other
	// way; any sense change increments reversals.
	mask := SenseMask{}
	if d1.Advisory.Sense() == SenseDown {
		mask.BanDown = true
	} else {
		mask.BanUp = true
	}
	d2 := logic.Decide(own, geom.Vec3{X: 1100, Z: -30}, geom.Vec3{X: -50}, mask)
	if d2.Advisory.Sense() != SenseNone && d2.Advisory.Sense() != d1.Advisory.Sense() {
		if logic.reversals != 1 {
			t.Errorf("reversal count = %d, want 1", logic.reversals)
		}
		if !d2.Reversal {
			t.Error("reversal not flagged")
		}
	}
}

func TestBuildTableMetadata(t *testing.T) {
	table, err := BuildTable(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if table.BuildTime() <= 0 {
		t.Error("build time not recorded")
	}
	wantEntries := (tinyConfig().Grid.Horizon + 1) * 9 * 3 * 3 * NumAdvisories * NumAdvisories
	if got := table.NumEntries(); got != wantEntries {
		t.Errorf("NumEntries = %d, want %d", got, wantEntries)
	}
}

func BenchmarkTableLookup(b *testing.B) {
	table, err := BuildTable(tinyConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table.BestAdvisory(10.5, 25, 1, -2, COC, SenseMask{})
	}
}

func BenchmarkBuildCoarseTable(b *testing.B) {
	cfg := CoarseConfig()
	cfg.Workers = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTable(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildDefaultTable(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Workers = runtime.NumCPU()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTable(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
