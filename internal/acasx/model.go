package acasx

import (
	"acasxval/internal/geom"
	"acasxval/internal/interp"
)

// model is the offline MDP: the discretized state space over (h, dh0, dh1)
// crossed with the discrete advisory state, plus the sigma-point dynamics
// used to build successor distributions.
type model struct {
	cfg Config
	// grid spans the three continuous dimensions (h, dh0, dh1).
	grid *interp.Grid
	// contSize is grid.Size(): the number of continuous-state vertices.
	contSize int
	// stateSize is contSize * NumAdvisories: one value-table slice.
	stateSize int
	// sigma are the 3-point Gauss-Hermite quadrature nodes/weights used to
	// integrate white-noise accelerations: nodes at -sqrt(3), 0, +sqrt(3)
	// standard deviations with weights 1/6, 2/3, 1/6.
	sigmaNodes   [3]float64
	sigmaWeights [3]float64
}

func newModel(cfg Config) (*model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := cfg.Grid
	grid, err := interp.NewGrid(
		interp.Uniform(-g.HMax, g.HMax, g.NumH),
		interp.Uniform(-g.RateMax, g.RateMax, g.NumRate),
		interp.Uniform(-g.RateMax, g.RateMax, g.NumRate),
	)
	if err != nil {
		return nil, err
	}
	m := &model{
		cfg:       cfg,
		grid:      grid,
		contSize:  grid.Size(),
		stateSize: grid.Size() * NumAdvisories,
	}
	const root3 = 1.7320508075688772
	m.sigmaNodes = [3]float64{-root3, 0, root3}
	m.sigmaWeights = [3]float64{1.0 / 6, 2.0 / 3, 1.0 / 6}
	return m, nil
}

// stateIndex flattens (continuous vertex c, advisory ra) into a slice index.
// Layout: ra-major blocks of contSize so that one advisory's continuous
// table is contiguous (good locality for interpolation).
func (m *model) stateIndex(c int, ra Advisory) int {
	return int(ra)*m.contSize + c
}

// terminalValues builds V_0: the collision cost where |h| is inside the
// NMAC threshold at tau = 0, uniformly across rates and advisory states.
func (m *model) terminalValues() []float64 {
	v := make([]float64, m.stateSize)
	hAxis := m.grid.Axis(0)
	n1 := m.grid.AxisLen(1)
	n2 := m.grid.AxisLen(2)
	for hi, h := range hAxis {
		if h > m.cfg.Cost.NMACVertical || h < -m.cfg.Cost.NMACVertical {
			continue
		}
		for ra := 0; ra < NumAdvisories; ra++ {
			base := ra*m.contSize + hi*n1*n2
			for j := 0; j < n1*n2; j++ {
				v[base+j] = -m.cfg.Cost.Collision
			}
		}
	}
	return v
}

// eventCost returns the immediate cost (as negative reward) of choosing
// advisory a while the active advisory is ra.
func (m *model) eventCost(ra, a Advisory) float64 {
	k := m.cfg.Cost
	cost := 0.0
	if a != COC {
		cost += k.ActivePerStep
		if ra == COC {
			cost += k.NewAlert
		} else {
			if ra.Sense() != SenseNone && a.Sense() != SenseNone && ra.Sense() != a.Sense() {
				cost += k.Reversal
			}
			if a.Strengthened() && !ra.Strengthened() && ra.Sense() == a.Sense() {
				cost += k.Strengthen
			}
		}
	}
	return -cost
}

// ownRateNext returns the own-ship's next vertical rate under advisory a
// with noise node w (in units of standard deviations).
func (m *model) ownRateNext(dh0 float64, a Advisory, node float64) float64 {
	d := m.cfg.Dynamics
	var next float64
	if a == COC {
		next = dh0 + node*d.OwnAccelSigma*d.Dt
	} else {
		accel := d.Accel
		if a.Strengthened() {
			accel = d.StrengthenAccel
		}
		dv := geom.Clamp(a.TargetRate()-dh0, -accel*d.Dt, accel*d.Dt)
		next = dh0 + dv + node*d.ComplianceSigma*d.Dt
	}
	return geom.Clamp(next, -m.cfg.Grid.RateMax, m.cfg.Grid.RateMax)
}

// intruderRateNext returns the intruder's next vertical rate with noise
// node w.
func (m *model) intruderRateNext(dh1 float64, node float64) float64 {
	d := m.cfg.Dynamics
	next := dh1 + node*d.IntruderAccelSigma*d.Dt
	return geom.Clamp(next, -m.cfg.Grid.RateMax, m.cfg.Grid.RateMax)
}

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

// numSigmaOutcomes is the number of joint (own, intruder) sigma outcomes
// integrated per (state, action): the 3x3 Gauss-Hermite tensor grid.
const numSigmaOutcomes = 9

// maxCorners bounds the interpolation expansion of one projected successor:
// the continuous grid is 3-D (h, dh0, dh1), so a cell has at most 2^3
// corners.
const maxCorners = 8

// transitions is the precomputed successor projection of the offline MDP:
// for every (continuous vertex c, action a, sigma outcome o) the grid
// vertices and barycentric weights of the projected successor state. The
// projection (h, dh0, dh1, a) -> vertex weights is independent of tau, so
// computing it once turns every backward-induction sweep into a pure
// gather/dot-product over the previous slice.
//
// Layout: group g = (c*NumAdvisories + a)*numSigmaOutcomes + o owns the
// fixed-stride arena span flats[g*maxCorners : g*maxCorners+counts[g]]
// (likewise weights); the stride wastes a few padding entries on boundary
// states but lets one parallel pass fill disjoint ranges directly. The
// per-outcome quadrature weight is kept separate (outcomeW) rather than
// folded into the corner weights: the sweep sums each outcome's corner
// gather first and then scales it, which is the operation order the
// checked-in table checksums pin.
type transitions struct {
	counts   []uint8
	flats    []int32
	weights  []float64
	outcomeW [numSigmaOutcomes]float64
}

// buildTransitions projects every (vertex, action, sigma outcome) successor
// onto the grid once, parallelized over vertices.
func (m *model) buildTransitions(workers int) *transitions {
	groups := m.contSize * NumAdvisories * numSigmaOutcomes
	tr := &transitions{
		counts:  make([]uint8, groups),
		flats:   make([]int32, groups*maxCorners),
		weights: make([]float64, groups*maxCorners),
	}
	o := 0
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			tr.outcomeW[o] = m.sigmaWeights[i] * m.sigmaWeights[j]
			o++
		}
	}
	run := func(lo, hi int) {
		var wsBuf [16]interp.VertexWeight
		var ptBuf, sucBuf [3]float64
		for c := lo; c < hi; c++ {
			pt := m.grid.PointAppend(ptBuf[:0], c)
			h, dh0, dh1 := pt[0], pt[1], pt[2]
			g := c * NumAdvisories * numSigmaOutcomes
			for a := 0; a < NumAdvisories; a++ {
				for i := 0; i < 3; i++ {
					for j := 0; j < 3; j++ {
						hn, dh0n, dh1n := m.successor(h, dh0, dh1, Advisory(a), m.sigmaNodes[i], m.sigmaNodes[j])
						sucBuf[0], sucBuf[1], sucBuf[2] = hn, dh0n, dh1n
						ws, _ := m.grid.WeightsAppend(wsBuf[:0], sucBuf[:])
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
	}
	parallelRanges(m.contSize, workers, run)
	return tr
}
