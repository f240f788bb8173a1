package sim

import (
	"math"
	"testing"

	"acasxval/internal/encounter"
	"acasxval/internal/geom"
	"acasxval/internal/uav"
)

// monitorMinima recomputes what the monitors should have recorded from a
// RecordTrajectory run: every ownship-intruder pair at t = 0, then at each
// of subSteps linear-interpolation points across every recorded step. It
// shares no code with ProximityMeasurer or AccidentDetector.
type monitorMinima struct {
	minH2, minV, min3, at3 float64
	nmac                   bool
	nmacTime               float64
}

func recomputeMonitors(traj []TrajectoryPoint, dt float64, subSteps int) monitorMinima {
	m := monitorMinima{minH2: math.Inf(1), minV: math.Inf(1), min3: math.Inf(1)}
	observe := func(t float64, own, intr geom.Vec3) {
		h2 := own.HorizontalDistanceSquaredTo(intr)
		v := math.Abs(own.Z - intr.Z)
		d2 := own.DistanceSquaredTo(intr)
		m.minH2 = math.Min(m.minH2, h2)
		m.minV = math.Min(m.minV, v)
		if d2 < m.min3 {
			m.min3, m.at3 = d2, t
		}
		if !m.nmac && h2 < geom.NMACHorizontal*geom.NMACHorizontal && v < geom.NMACVertical {
			m.nmac, m.nmacTime = true, t
		}
	}
	intruders := func(p TrajectoryPoint) []geom.Vec3 {
		out := []geom.Vec3{p.Intruder.Pos}
		for _, s := range p.MoreIntruders {
			out = append(out, s.Pos)
		}
		return out
	}
	for _, q := range intruders(traj[0]) {
		observe(0, traj[0].Own.Pos, q)
	}
	for n := 0; n+1 < len(traj); n++ {
		a, b := traj[n], traj[n+1]
		qa, qb := intruders(a), intruders(b)
		for i := 1; i <= subSteps; i++ {
			f := float64(i) / float64(subSteps)
			own := a.Own.Pos.Lerp(b.Own.Pos, f)
			for j := range qa {
				observe(a.T+f*dt, own, qa[j].Lerp(qb[j], f))
			}
		}
	}
	return m
}

// TestMonitorsMatchTrajectoryRecomputation: the minima, their time and the
// NMAC time a run reports must equal, bit for bit, a brute-force
// recomputation over every ownship-intruder pair from the recorded
// trajectory, for K = 1-3 and several monitor sub-sampling rates.
func TestMonitorsMatchTrajectoryRecomputation(t *testing.T) {
	table := getTable(t)
	var encounters []encounter.MultiParams
	for _, name := range encounter.PresetNames() {
		p, err := encounter.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		encounters = append(encounters, p.Multi())
	}
	for _, name := range encounter.MultiPresetNames() {
		m, err := encounter.MultiPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		encounters = append(encounters, m)
	}
	nmacs := 0
	for _, sub := range []int{1, 2, 3} {
		cfg := DefaultRunConfig()
		cfg.RecordTrajectory = true
		cfg.MonitorSubSteps = sub
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range encounters {
			for _, equipped := range []bool{false, true} {
				systems := make([]System, m.NumIntruders()+1)
				for j := range systems {
					systems[j] = NoSystem{}
					if equipped {
						systems[j] = NewACASXU(table)
					}
				}
				res, err := r.RunMulti(m, systems, uint64(11+i))
				if err != nil {
					t.Fatal(err)
				}
				want := recomputeMonitors(res.Trajectory, cfg.Dt, sub)
				if res.NMAC != want.nmac || res.NMACTime != want.nmacTime ||
					res.MinSeparation != math.Sqrt(want.min3) || res.MinSeparationAt != want.at3 ||
					res.MinHorizontal != math.Sqrt(want.minH2) || res.MinVertical != want.minV {
					t.Errorf("encounter %d (K=%d) equipped=%v sub=%d: monitors disagree with the recomputation\n got NMAC %v at %v, sep %v at %v, h %v, v %v\nwant NMAC %v at %v, sep %v at %v, h %v, v %v",
						i, m.NumIntruders(), equipped, sub,
						res.NMAC, res.NMACTime, res.MinSeparation, res.MinSeparationAt, res.MinHorizontal, res.MinVertical,
						want.nmac, want.nmacTime, math.Sqrt(want.min3), want.at3, math.Sqrt(want.minH2), want.minV)
				}
				if res.NMAC {
					nmacs++
				}
			}
		}
	}
	if nmacs == 0 {
		t.Error("no run had an NMAC, so the NMAC-time check is vacuous")
	}
}

// FuzzHorizontalMirror is the horizontal-mirror metamorphic relation: with
// every noise source off, negating ApproachAngle and IntruderBearing
// reflects the encounter across the ownship's track, which must leave the
// NMAC verdict and the alert counts unchanged, unequipped and with ACAS XU
// on both aircraft. The relation is not bit-exact: the mirrored intruder's
// heading wraps into [0, 2*pi) on its first step, and cos and sin of the
// wrapped angle differ from those of the negated one in the last bits, so
// the separations are compared to 1e-9 relative (1e-9 m near zero).
func FuzzHorizontalMirror(f *testing.F) {
	for _, in := range [][2]float64{
		{0, math.Pi}, {math.Pi / 4, 3 * math.Pi / 4}, {1, 2}, {2.5, 0.3}, {math.Pi / 2, math.Pi},
		{3, 5}, {0.1, 6}, {4, 1.2}, {5.5, 3.3}, {-1, 2 * math.Pi},
	} {
		f.Add(in[0], in[1])
	}
	table := getTable(f)
	cfg := DefaultRunConfig()
	cfg.Sensor = uav.SensorModel{}
	for _, u := range []*uav.Config{&cfg.OwnUAV, &cfg.IntruderUAV} {
		u.VerticalNoise, u.SpeedNoise, u.HeadingNoise = 0, 0, 0
	}
	r, err := NewRunner(cfg)
	if err != nil {
		f.Fatal(err)
	}
	near := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	}
	f.Fuzz(func(t *testing.T, approach, bearing float64) {
		if math.IsNaN(approach) || math.IsNaN(bearing) || math.Abs(approach) > 4*math.Pi || math.Abs(bearing) > 4*math.Pi {
			t.Skip("angles outside [-4*pi, 4*pi]")
		}
		for _, name := range encounter.PresetNames() {
			p, err := encounter.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			p.ApproachAngle, p.IntruderBearing = approach, bearing
			q := p
			q.ApproachAngle, q.IntruderBearing = -approach, -bearing
			for _, equipped := range []bool{false, true} {
				var own, intr System = NoSystem{}, NoSystem{}
				if equipped {
					own, intr = NewACASXU(table), NewACASXU(table)
				}
				a, err := r.Run(p, own, intr, 1)
				if err != nil {
					t.Fatal(err)
				}
				a.AlertCounts = append([]int(nil), a.AlertCounts...)
				b, err := r.Run(q, own, intr, 1)
				if err != nil {
					t.Fatal(err)
				}
				if a.NMAC != b.NMAC || a.AlertCounts[0] != b.AlertCounts[0] || a.AlertCounts[1] != b.AlertCounts[1] ||
					!near(a.MinSeparation, b.MinSeparation) || !near(a.MinHorizontal, b.MinHorizontal) ||
					!near(a.MinVertical, b.MinVertical) {
					t.Errorf("%s equipped=%v angles (%v, %v): the mirror changed the outcome\noriginal NMAC %v alerts %v sep %v/%v/%v\nmirrored NMAC %v alerts %v sep %v/%v/%v",
						name, equipped, approach, bearing,
						a.NMAC, a.AlertCounts, a.MinSeparation, a.MinHorizontal, a.MinVertical,
						b.NMAC, b.AlertCounts, b.MinSeparation, b.MinHorizontal, b.MinVertical)
				}
			}
		}
	})
}
