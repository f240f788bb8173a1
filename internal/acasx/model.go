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
	// stateSize is contSize * NumAdvisories: one value-table slice,
	// indexed ra*contSize + c for continuous vertex c and advisory ra:
	// ra-major blocks of contSize so that one advisory's continuous table is
	// contiguous (good locality for interpolation).
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
// Layout: group g = (c*NumAdvisories + a)*numSigmaOutcomes + o, with
// o = 3*(own node) + (intruder node), owns the fixed-stride arena span
// flats[g*maxCorners : g*maxCorners+counts[g]] (likewise weights); the
// stride wastes a few padding entries on boundary states but lets one
// parallel pass fill disjoint ranges directly. Each span holds exactly the
// corners and weights Grid.WeightsAppend returns for the successor point,
// in its order. The per-outcome quadrature weight is kept separate
// (outcomeW) rather than folded into the corner weights: the sweep sums
// each outcome's corner gather first and then scales it, which is the
// operation order the checked-in table checksums pin.
type transitions struct {
	counts   []uint8
	flats    []int32
	weights  []float64
	outcomeW [numSigmaOutcomes]float64
}

// located is one coordinate of a successor state placed on its grid axis:
// the coordinate, the flat-index offset of its lower bracketing cut point
// (index times the axis stride) and its fraction towards the next cut point,
// as Grid.Locate gives them.
type located struct {
	x    float64
	off  int32
	frac float64
}

// buildTransitions projects every (vertex, action, sigma outcome) successor
// onto the grid once, parallelized over vertices.
//
// The projection is separable per axis. The own-ship's next rate depends
// only on (dh0 vertex, action, own node) and the intruder's only on (dh1
// vertex, intruder node), so each is located on its axis once up front;
// per group only the next altitude, which mixes all of them, is located.
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
	hs, rates := m.grid.Axis(0), m.grid.Axis(1)
	nr := len(rates)
	// Row-major strides of (h, dh0, dh1).
	strides := [3]int32{int32(nr * nr), int32(nr), 1}
	locate := func(d int, x float64) located {
		lo, frac := m.grid.Locate(d, x)
		return located{x: x, off: int32(lo) * strides[d], frac: frac}
	}
	own := make([]located, nr*NumAdvisories*3)
	for i0, dh0 := range rates {
		for a := 0; a < NumAdvisories; a++ {
			for i, node := range m.sigmaNodes {
				own[(i0*NumAdvisories+a)*3+i] = locate(1, m.ownRateNext(dh0, Advisory(a), node))
			}
		}
	}
	intr := make([]located, nr*3)
	for i1, dh1 := range rates {
		for j, node := range m.sigmaNodes {
			intr[i1*3+j] = locate(2, m.intruderRateNext(dh1, node))
		}
	}
	dt, hMax := m.cfg.Dynamics.Dt, m.cfg.Grid.HMax
	run := func(lo, hi int) {
		for c := lo; c < hi; c++ {
			i0, i1 := c/nr%nr, c%nr
			h, dh0, dh1 := hs[c/(nr*nr)], rates[i0], rates[i1]
			g := c * NumAdvisories * numSigmaOutcomes
			for a := 0; a < NumAdvisories; a++ {
				for i := 0; i < 3; i++ {
					dh0n := own[(i0*NumAdvisories+a)*3+i]
					for j := 0; j < 3; j++ {
						dh1n := intr[i1*3+j]
						// Trapezoidal altitude integration with the old and
						// new rates.
						hn := h + 0.5*((dh1+dh1n.x)-(dh0+dh0n.x))*dt
						hn = geom.Clamp(hn, -hMax, hMax)
						tr.setCorners(g, &[3]located{locate(0, hn), dh0n, dh1n}, &strides)
						g++
					}
				}
			}
		}
	}
	parallelRanges(m.contSize, workers, run)
	return tr
}

// setCorners writes group g's interpolation corners from the located
// (h, dh0, dh1) coordinates of its successor, with Grid.WeightsAppend's
// order and products: the axes in turn, each axis with a nonzero fraction
// doubling the corners (a lower corner keeps its slot and takes weight
// times 1-frac, its upper twin is appended with weight times frac) and a
// zero-fraction axis only offsetting them. An upper-clamped coordinate has
// fraction 1, so it keeps its zero-weight lower corner as WeightsAppend
// does.
func (tr *transitions) setCorners(g int, pos *[3]located, strides *[3]int32) {
	at := g * maxCorners
	flats := tr.flats[at : at+maxCorners]
	weights := tr.weights[at : at+maxCorners]
	flats[0], weights[0] = 0, 1
	k := 1
	for d := range pos {
		p := &pos[d]
		if p.frac == 0 {
			for i := 0; i < k; i++ {
				flats[i] += p.off
			}
			continue
		}
		for i := 0; i < k; i++ {
			w := weights[i]
			flats[k+i] = flats[i] + p.off + strides[d]
			weights[k+i] = w * p.frac
			flats[i] += p.off
			weights[i] = w * (1 - p.frac)
		}
		k *= 2
	}
	tr.counts[g] = uint8(k)
}
