package acasx

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"acasxval/internal/geom"
	"acasxval/internal/stats"
	"acasxval/internal/uav"
)

var update = flag.Bool("update", false, "rewrite golden files instead of comparing")

// namedExecutive builds a fresh executive of one flavour.
type namedExecutive struct {
	name string
	make func(t testing.TB) *Logic
}

// executives lists the point executive, the default-sigma belief executive
// and the zero-sigma belief executive.
func executives() []namedExecutive {
	belief := func(s BeliefSigmas) func(t testing.TB) *Logic {
		return func(t testing.TB) *Logic {
			l, err := NewBeliefLogic(getCoarseTable(t), s)
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
	}
	return []namedExecutive{
		{"point", func(t testing.TB) *Logic { return NewLogic(getCoarseTable(t)) }},
		{"belief", belief(DefaultBeliefSigmas())},
		{"belief0", belief(BeliefSigmas{})},
	}
}

// closingEncounter is an ownship heading +X that follows its advisories
// vertically, and k intruders on straight lines that would each reach a
// close point of approach with the unresolved ownship between 20 s and
// 45 s in. Each intruder reverses its vertical speed once, at a time
// between 10 s and 40 s in, so held advisories have to react.
type closingEncounter struct {
	ownPos geom.Vec3
	ownVel geom.Velocity
	slew   float64
	intr   []geom.Track
	flipAt []float64
}

// newClosingEncounter draws a seeded k-intruder closing geometry.
func newClosingEncounter(rng *rand.Rand, k int) closingEncounter {
	e := closingEncounter{
		ownVel: geom.Velocity{Gs: 35 + 20*rng.Float64(), Vs: 12*rng.Float64() - 6},
		slew:   float64(rng.IntN(3)),
	}
	ownV := e.ownVel.Vec()
	for i := 0; i < k; i++ {
		tc := 20 + 25*rng.Float64()
		psi := math.Pi/2 + math.Pi*rng.Float64() // closing from ahead
		v := geom.Velocity{Gs: 30 + 25*rng.Float64(), Psi: psi, Vs: 20*rng.Float64() - 10}.Vec()
		miss := geom.Vec3{Y: 300*rng.Float64() - 150, Z: 240*rng.Float64() - 120}
		cpa := ownV.Scale(tc).Add(miss)
		e.intr = append(e.intr, geom.Track{Pos: cpa.Sub(v.Scale(tc)), Vel: v})
		e.flipAt = append(e.flipAt, 10+30*rng.Float64())
	}
	return e
}

// at returns the ownship state and the noisy intruder tracks at time t.
func (e *closingEncounter) at(t float64, rng *rand.Rand, tracks []geom.Track) (uav.State, []geom.Track) {
	tracks = tracks[:0]
	for i, tr := range e.intr {
		pos, vel := tr.Pos.Add(tr.Vel.Scale(t)), tr.Vel
		if tf := e.flipAt[i]; t > tf {
			pos.Z -= 2 * tr.Vel.Z * (t - tf)
			vel.Z = -vel.Z
		}
		pos = pos.Add(geom.Vec3{X: 5 * rng.NormFloat64(), Y: 5 * rng.NormFloat64(), Z: 3 * rng.NormFloat64()})
		vel = vel.Add(geom.Vec3{X: 0.5 * rng.NormFloat64(), Y: 0.5 * rng.NormFloat64(), Z: 0.3 * rng.NormFloat64()})
		tracks = append(tracks, geom.Track{Pos: pos, Vel: vel})
	}
	return uav.State{Pos: e.ownPos, Vel: e.ownVel}, tracks
}

// advance flies the ownship for one second, slewing its vertical speed
// toward the target rate of advisory a by at most 1 m/s.
func (e *closingEncounter) advance(a Advisory) {
	e.ownPos = e.ownPos.Add(e.ownVel.Vec())
	if a != COC {
		e.ownVel.Vs += math.Max(-e.slew, math.Min(e.slew, a.TargetRate()-e.ownVel.Vs))
	}
}

// randomMask bans a sense on a minority of cycles, as a peer's
// coordination broadcast would.
func randomMask(rng *rand.Rand) SenseMask {
	switch rng.IntN(10) {
	case 0:
		return SenseMask{BanUp: true}
	case 1:
		return SenseMask{BanDown: true}
	case 2:
		return SenseMask{BanUp: true, BanDown: true}
	}
	return SenseMask{}
}

// goldenDecision is one line of the executive golden: the decision and the
// executive state after it. Revs is recorded for the point executive only,
// the one that counted reversals when the golden was cut.
type goldenDecision struct {
	Run      string   `json:"run"`
	Episode  int      `json:"ep"`
	Step     int      `json:"step"`
	Adv      Advisory `json:"adv"`
	Tau      float64  `json:"tau"`
	H        float64  `json:"h"`
	Flags    string   `json:"flags"`
	Advisory Advisory `json:"advisory"`
	Alerts   int      `json:"alerts"`
	Revs     *int     `json:"revs,omitempty"`
}

// decisionFlags spells Alerting, NewAlert, Reversal and Strengthening as
// one letter each, '-' when false.
func decisionFlags(d Decision) string {
	b := []byte("----")
	for i, on := range []bool{d.Alerting, d.NewAlert, d.Reversal, d.Strengthening} {
		if on {
			b[i] = "ANRS"[i]
		}
	}
	return string(b)
}

const (
	goldenEpisodes = 2
	goldenSteps    = 60
)

// TestExecutiveDecisionGolden pins every decision of the ACAS XU executives
// over seeded 60-step closing encounters with K = 1, 2, 3 intruders and
// random coordination masks: K = 1 through both Decide and DecideMulti,
// K > 1 through DecideMulti. Regenerate with
// `go test ./internal/acasx -run ExecutiveDecisionGolden -update` after an
// intentional change to the decision logic.
func TestExecutiveDecisionGolden(t *testing.T) {
	routes := []struct {
		k     int
		route string
	}{{1, "decide"}, {1, "multi"}, {2, "multi"}, {3, "multi"}}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	for _, ex := range executives() {
		for _, r := range routes {
			logic := ex.make(t)
			run := ex.name + "/k" + string(rune('0'+r.k)) + "/" + r.route
			for ep := 0; ep < goldenEpisodes; ep++ {
				logic.Reset()
				rng := stats.NewRNG(uint64(101*r.k + ep))
				geo := newClosingEncounter(rng, r.k)
				var buf []geom.Track
				for step := 0; step < goldenSteps; step++ {
					own, tracks := geo.at(float64(step), rng, buf)
					buf = tracks
					mask := randomMask(rng)
					var d Decision
					if r.route == "decide" {
						d = logic.Decide(own, tracks[0].Pos, tracks[0].Vel, mask)
					} else {
						d = logic.DecideMulti(own, tracks, mask)
					}
					line := goldenDecision{
						Run: run, Episode: ep, Step: step,
						Adv: d.Advisory, Tau: d.Tau, H: d.H, Flags: decisionFlags(d),
						Advisory: logic.Advisory(), Alerts: logic.alerts,
					}
					if ex.name == "point" {
						n := logic.reversals
						line.Revs = &n
					}
					if err := enc.Encode(line); err != nil {
						t.Fatal(err)
					}
					geo.advance(d.Advisory)
				}
			}
		}
	}
	got := out.Bytes()

	golden := filepath.Join("testdata", "executive_decisions.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("decision stream drifted from %s at line %d\ngot:  %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("decision stream drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}

// FuzzDecideMultiPermutation is the intruder-permutation metamorphic
// relation: fusion is a minimum over threats and the reported Tau is the
// smallest, so feeding DecideMulti a permuted track slice must give the same
// decision and executive state, step after step, on every field except H
// (first index on ties by contract). The ownship follows the advisories, so
// the advisory state carries across the 60 steps.
func FuzzDecideMultiPermutation(f *testing.F) {
	for seed := uint64(0); seed < 6; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed uint64, kb uint8) {
		k := 2 + int(kb%3)
		rng := stats.NewRNG(seed)
		geo := newClosingEncounter(rng, k)
		perm := rng.Perm(k)
		permuted := make([]geom.Track, k)
		var buf []geom.Track
		for _, ex := range executives()[:2] {
			a, b := ex.make(t), ex.make(t)
			g := geo
			for step := 0; step < goldenSteps; step++ {
				own, tracks := g.at(float64(step), rng, buf)
				buf = tracks
				for i, p := range perm {
					permuted[i] = tracks[p]
				}
				mask := randomMask(rng)
				da := a.DecideMulti(own, tracks, mask)
				db := b.DecideMulti(own, permuted, mask)
				da.H, db.H = 0, 0
				if da != db || a.alerts != b.alerts || a.reversals != b.reversals {
					t.Fatalf("%s step %d perm %v: %+v (alerts %d, reversals %d) != permuted %+v (alerts %d, reversals %d)",
						ex.name, step, perm, da, a.alerts, a.reversals, db, b.alerts, b.reversals)
				}
				g.advance(da.Advisory)
			}
		}
	})
}

// TestExecutiveZeroAlloc: a decision cycle allocates nothing on either
// executive, one track or three — the per-threat query buffers stay on the
// stack. CI also gates the Fig5HeadOn and TableLookupHot benchmarks at
// 0 allocs/op.
func TestExecutiveZeroAlloc(t *testing.T) {
	own := multiTestOwn()
	tracks := []geom.Track{headOnTrack(700, 25, -2), headOnTrack(650, -25, 2), headOnTrack(900, 5, 0)}
	for _, ex := range executives()[:2] {
		l := ex.make(t)
		if n := testing.AllocsPerRun(100, func() { l.Decide(own, tracks[0].Pos, tracks[0].Vel, SenseMask{}) }); n != 0 {
			t.Errorf("%s: Decide allocated %v times per run", ex.name, n)
		}
		if n := testing.AllocsPerRun(100, func() { l.DecideMulti(own, tracks, SenseMask{}) }); n != 0 {
			t.Errorf("%s: 3-track DecideMulti allocated %v times per run", ex.name, n)
		}
	}
}
