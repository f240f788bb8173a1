package acasx

import (
	"math"
	"testing"

	"acasxval/internal/geom"
	"acasxval/internal/interp"
)

// successor computes the deterministic next continuous state for one joint
// sigma outcome: trapezoidal altitude integration with the old and new
// rates.
func (m *model) successor(h, dh0, dh1 float64, a Advisory, ownNode, intrNode float64) (hn, dh0n, dh1n float64) {
	dt := m.cfg.Dynamics.Dt
	dh0n = m.ownRateNext(dh0, a, ownNode)
	dh1n = m.intruderRateNext(dh1, intrNode)
	hn = h + 0.5*((dh1+dh1n)-(dh0+dh0n))*dt
	hn = geom.Clamp(hn, -m.cfg.Grid.HMax, m.cfg.Grid.HMax)
	return hn, dh0n, dh1n
}

// referenceTransitions is the direct projection buildTransitions must
// reproduce: every (vertex, action, sigma outcome) successor computed whole
// and handed to Grid.WeightsAppend, the online lookup's weight path.
func referenceTransitions(m *model) *transitions {
	groups := m.contSize * NumAdvisories * numSigmaOutcomes
	tr := &transitions{
		counts:  make([]uint8, groups),
		flats:   make([]int32, groups*maxCorners),
		weights: make([]float64, groups*maxCorners),
	}
	var wsBuf [16]interp.VertexWeight
	g := 0
	for c := 0; c < m.contSize; c++ {
		pt := m.grid.Point(c)
		for a := 0; a < NumAdvisories; a++ {
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					hn, dh0n, dh1n := m.successor(pt[0], pt[1], pt[2], Advisory(a), m.sigmaNodes[i], m.sigmaNodes[j])
					ws, _ := m.grid.WeightsAppend(wsBuf[:0], []float64{hn, dh0n, dh1n})
					at := g * maxCorners
					for k, vw := range ws {
						tr.flats[at+k] = int32(vw.Flat)
						tr.weights[at+k] = vw.Weight
					}
					tr.counts[g] = uint8(len(ws))
					g++
				}
			}
		}
	}
	return tr
}

// TestTransitionsMatchReference: the per-axis projection of buildTransitions
// (rate successors located once, only the next altitude per group) gives
// the reference's corner counts, vertices and weights bit for bit, padding
// included, at one and several workers.
func TestTransitionsMatchReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"tiny", tinyConfig()},
		{"coarse", CoarseConfig()},
		{"full", DefaultConfig()},
	} {
		m, err := newModel(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceTransitions(m)
		for _, workers := range []int{1, 3} {
			got := m.buildTransitions(workers)
			for g := range want.counts {
				if got.counts[g] != want.counts[g] {
					t.Fatalf("%s workers=%d group %d: %d corners, want %d", tc.name, workers, g, got.counts[g], want.counts[g])
				}
			}
			for i := range want.flats {
				if got.flats[i] != want.flats[i] || math.Float64bits(got.weights[i]) != math.Float64bits(want.weights[i]) {
					t.Fatalf("%s workers=%d arena entry %d (group %d): (%d, %v), want (%d, %v)", tc.name, workers,
						i, i/maxCorners, got.flats[i], got.weights[i], want.flats[i], want.weights[i])
				}
			}
		}
	}
}
