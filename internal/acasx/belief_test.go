package acasx

import (
	"testing"

	"acasxval/internal/geom"
	"acasxval/internal/uav"
)

func TestBeliefSigmasValidation(t *testing.T) {
	if err := DefaultBeliefSigmas().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (BeliefSigmas{H: -1}).Validate(); err == nil {
		t.Error("negative sigma accepted")
	}
	if _, err := NewBeliefLogic(getCoarseTable(t), BeliefSigmas{Rate: -1}); err == nil {
		t.Error("NewBeliefLogic accepted bad sigmas")
	}
}

// TestZeroSigmaBeliefMatchesPointLogic: with a collapsed belief the QMDP
// executive must make exactly the decisions of the point-estimate logic.
func TestZeroSigmaBeliefMatchesPointLogic(t *testing.T) {
	table := getCoarseTable(t)
	point := NewLogic(table)
	belief, err := NewBeliefLogic(table, BeliefSigmas{})
	if err != nil {
		t.Fatal(err)
	}
	own := uav.State{Vel: geom.Velocity{Gs: 50}}
	cases := []struct {
		pos geom.Vec3
		vel geom.Vec3
	}{
		{geom.Vec3{X: 1200, Z: 0}, geom.Vec3{X: -50}},
		{geom.Vec3{X: 900, Z: 60}, geom.Vec3{X: -40, Z: -2}},
		{geom.Vec3{X: 700, Z: -80}, geom.Vec3{X: -45, Z: 3}},
		{geom.Vec3{X: 5000, Z: 0}, geom.Vec3{X: -50}},
		{geom.Vec3{X: 400, Z: 10}, geom.Vec3{X: -30, Z: 1}},
	}
	for i, c := range cases {
		dp := point.Decide(own, c.pos, c.vel, SenseMask{})
		db := belief.Decide(own, c.pos, c.vel, SenseMask{})
		if dp.Advisory != db.Advisory {
			t.Errorf("case %d: point %v vs zero-sigma belief %v", i, dp.Advisory, db.Advisory)
		}
	}
}

// TestBeliefRespectsGeometry: large intruder-above threat should still pick
// a descend sense under belief weighting.
func TestBeliefRespectsGeometry(t *testing.T) {
	table := getCoarseTable(t)
	belief, err := NewBeliefLogic(table, DefaultBeliefSigmas())
	if err != nil {
		t.Fatal(err)
	}
	own := uav.State{Vel: geom.Velocity{Gs: 50}}
	d := belief.Decide(own, geom.Vec3{X: 1000, Z: 90}, geom.Vec3{X: -50}, SenseMask{})
	if d.Advisory.Sense() == SenseUp {
		t.Errorf("belief logic climbs toward an intruder 90 m above (%v)", d.Advisory)
	}
}

func TestBeliefRespectsMask(t *testing.T) {
	table := getCoarseTable(t)
	belief, err := NewBeliefLogic(table, DefaultBeliefSigmas())
	if err != nil {
		t.Fatal(err)
	}
	own := uav.State{Vel: geom.Velocity{Gs: 50}}
	d := belief.Decide(own, geom.Vec3{X: 1000, Z: 0}, geom.Vec3{X: -50},
		SenseMask{BanUp: true, BanDown: true})
	if d.Advisory != COC {
		t.Errorf("fully-masked belief decision = %v", d.Advisory)
	}
}

func TestBeliefLifecycle(t *testing.T) {
	table := getCoarseTable(t)
	belief, err := NewBeliefLogic(table, DefaultBeliefSigmas())
	if err != nil {
		t.Fatal(err)
	}
	own := uav.State{Vel: geom.Velocity{Gs: 50}}
	d := belief.Decide(own, geom.Vec3{X: 1100, Z: 0}, geom.Vec3{X: -50}, SenseMask{})
	if !d.Alerting || !d.NewAlert {
		t.Fatalf("imminent threat not alerted: %+v", d)
	}
	if belief.alerts != 1 {
		t.Errorf("alerts = %d", belief.alerts)
	}
	// Advisory is held while still converging even if the gap opens.
	d2 := belief.Decide(own, geom.Vec3{X: 600, Z: 200}, geom.Vec3{X: -50}, SenseMask{})
	if !d2.Alerting {
		t.Error("advisory dropped while converging")
	}
	belief.Reset()
	if belief.Advisory() != COC || belief.alerts != 0 {
		t.Error("reset incomplete")
	}
	// Diverging traffic: clear.
	d3 := belief.Decide(own, geom.Vec3{X: -2000, Z: 0}, geom.Vec3{X: -60}, SenseMask{})
	if d3.Alerting {
		t.Error("diverging traffic alerted")
	}
}

func TestComparePoliciesIdentity(t *testing.T) {
	table := getCoarseTable(t)
	cmp, err := ComparePolicies(table, table, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Agreement != 1 || cmp.SenseAgreement != 1 {
		t.Errorf("self-comparison agreement = %v/%v, want 1/1", cmp.Agreement, cmp.SenseAgreement)
	}
	if cmp.MeanAbsQDiff != 0 {
		t.Errorf("self-comparison |dQ| = %v, want 0", cmp.MeanAbsQDiff)
	}
	if cmp.AlertRateA != cmp.AlertRateB {
		t.Error("self-comparison alert rates differ")
	}
	if cmp.String() == "" {
		t.Error("empty comparison string")
	}
}

func TestComparePoliciesDifferentCosts(t *testing.T) {
	a := getCoarseTable(t)
	// A revised model with a much larger alert cost must alert less.
	cfg := CoarseConfig()
	cfg.Cost.NewAlert = 2000
	cfg.Cost.ActivePerStep = 200
	cfg.Workers = 4
	b, err := BuildTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := ComparePolicies(a, b, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Agreement >= 1 {
		t.Error("different cost models produced identical policies")
	}
	if cmp.AlertRateB >= cmp.AlertRateA {
		t.Errorf("expensive alerts should reduce alert rate: %v vs %v", cmp.AlertRateB, cmp.AlertRateA)
	}
}

func TestComparePoliciesErrors(t *testing.T) {
	table := getCoarseTable(t)
	if _, err := ComparePolicies(table, table, 0, 1); err == nil {
		t.Error("n=0 accepted")
	}
}
