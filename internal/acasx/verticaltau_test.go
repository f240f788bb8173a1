package acasx

import (
	"sync"
	"testing"

	"acasxval/internal/geom"
	"acasxval/internal/uav"
)

var (
	vtOnce  sync.Once
	vtTable *Table
	vtErr   error
)

// getVerticalTauTable builds a coarse table with the tail-approach revision
// enabled (large DMOD + vertical-tau fallback).
func getVerticalTauTable(t *testing.T) *Table {
	t.Helper()
	vtOnce.Do(func() {
		cfg := CoarseConfig()
		cfg.Workers = 4
		cfg.DMOD = 500
		cfg.UseVerticalTau = true
		vtTable, vtErr = BuildTable(cfg)
	})
	if vtErr != nil {
		t.Fatal(vtErr)
	}
	return vtTable
}

func TestEffectiveTauDefaultMatchesHorizontal(t *testing.T) {
	cfg := DefaultConfig()
	own := geom.Vec3{}
	ownVel := geom.Vec3{X: 50}
	intr := geom.Vec3{X: 2000}
	intrVel := geom.Vec3{X: -50}
	want := geom.Tau(own, ownVel, intr, intrVel, cfg.DMOD)
	got := effectiveTau(&cfg, own, ownVel, intr, intrVel, 100, 0, 0)
	if got != want {
		t.Errorf("effectiveTau = %v, want horizontal tau %v", got, want)
	}
}

func TestEffectiveTauVerticalFallback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DMOD = 500
	cfg.UseVerticalTau = true
	own := geom.Vec3{}
	ownVel := geom.Vec3{X: 50}
	// Intruder 200 m ahead (inside DMOD) converging slowly: horizontal tau
	// would be 0.
	intr := geom.Vec3{X: 200, Z: 100}
	intrVel := geom.Vec3{X: -51 + 100} // slight closure

	// Vertically converging at 5 m/s from h=100: tau_v = (100-30.48)/5.
	got := effectiveTau(&cfg, own, ownVel, intr, intrVel, 100, 2.5, -2.5)
	want := (100 - cfg.Cost.NMACVertical) / 5
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("vertical tau = %v, want %v", got, want)
	}

	// Inside the NMAC band: immediate conflict.
	if got := effectiveTau(&cfg, own, ownVel, intr, intrVel, 10, 2.5, -2.5); got != 0 {
		t.Errorf("inside-band tau = %v, want 0", got)
	}

	// Vertically diverging: unbounded.
	if got := effectiveTau(&cfg, own, ownVel, intr, intrVel, 100, -2.5, 2.5); got != geom.TauUnbounded {
		t.Errorf("diverging tau = %v, want unbounded", got)
	}

	// Zero relative vertical rate: unbounded.
	if got := effectiveTau(&cfg, own, ownVel, intr, intrVel, 100, 1, 1); got != geom.TauUnbounded {
		t.Errorf("zero-rate tau = %v, want unbounded", got)
	}

	// Negative h, converging upward.
	got = effectiveTau(&cfg, own, ownVel, intr, intrVel, -100, -2.5, 2.5)
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("negative-h vertical tau = %v, want %v", got, want)
	}
}

// TestVerticalTauRevisionAlertsOnTailGeometry: the revised executive must
// alert in the slow-closure geometry the default system is blind to.
func TestVerticalTauRevisionAlertsOnTailGeometry(t *testing.T) {
	revised := getVerticalTauTable(t)
	original := getCoarseTable(t)

	own := uav.State{Vel: geom.Velocity{Gs: 40, Vs: -2.5}}
	// Intruder 150 m behind, overtaking at 4 m/s, 45 m below and climbing:
	// constant-rate projection reaches the NMAC band in ~3 s. (The
	// vertical-tau fallback by construction projects exactly onto the band
	// edge, so alerting concentrates at small vertical tau.)
	intrPos := geom.Vec3{X: -150, Z: -45}
	intrVel := geom.Vec3{X: 44, Z: 2.5}

	origLogic := NewLogic(original)
	dOrig := origLogic.Decide(own, intrPos, intrVel, SenseMask{})
	if dOrig.Alerting {
		t.Fatalf("default system alerted in slow-closure geometry (tau=%v) — blind spot missing", dOrig.Tau)
	}

	revLogic := NewLogic(revised)
	d := revLogic.Decide(own, intrPos, intrVel, SenseMask{})
	if !d.Alerting {
		t.Fatalf("revised system did not alert (tau=%v, h=%v)", d.Tau, d.H)
	}
	if d.Advisory.Sense() != SenseUp {
		t.Errorf("revised advisory %v; intruder below climbing, expected climb sense", d.Advisory)
	}
}
