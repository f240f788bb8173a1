package acasx

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"acasxval/internal/interp"
)

// Table is the generated logic table: for every tau slice k = 0..Horizon,
// the action values Q_k(h, dh0, dh1, ra, a). The table is the product
// artifact of the model-based optimization process — what the paper calls
// the "Logic Table" output of Fig. 1.
type Table struct {
	cfg Config
	// q[k] has stateSize*NumAdvisories entries: Q values for slice k,
	// indexed by (action-major) a*stateSize + stateIndex(c, ra).
	q [][]float64
	// grid spans (h, dh0, dh1); kept for online interpolation.
	grid     *interp.Grid
	contSize int
	// stats
	buildTime  time.Duration
	sweepCount int
}

// BuildTable runs the offline optimization: backward induction over the
// tau-indexed finite-horizon MDP. Cost: O(Horizon x states x actions x 9
// sigma outcomes x 8 interpolation corners). With Config.Workers > 1 the
// per-slice sweeps are parallelized over states; the result is identical to
// the serial solve.
//
// The successor projection (h, dh0, dh1, a) -> grid vertex weights does not
// depend on tau, so it is computed once up front and every sweep reduces to
// a sparse gather/dot-product over the previous slice.
func BuildTable(cfg Config) (*Table, error) {
	start := time.Now()
	m, err := newModel(cfg)
	if err != nil {
		return nil, err
	}
	horizon := cfg.Grid.Horizon
	t := &Table{
		cfg:      cfg,
		q:        make([][]float64, horizon+1),
		grid:     m.grid,
		contSize: m.contSize,
	}

	// Slice 0: terminal values, identical for every action.
	v := m.terminalValues()
	q0 := make([]float64, m.stateSize*NumAdvisories)
	for a := 0; a < NumAdvisories; a++ {
		copy(q0[a*m.stateSize:(a+1)*m.stateSize], v)
	}
	t.q[0] = q0

	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > runtime.NumCPU() {
		workers = runtime.NumCPU()
	}

	tr := m.buildTransitions(workers)
	prev := v
	for k := 1; k <= horizon; k++ {
		qk := make([]float64, m.stateSize*NumAdvisories)
		next := make([]float64, m.stateSize)
		sweepSlice(m, tr, prev, qk, next, workers)
		t.q[k] = qk
		prev = next
		t.sweepCount++
	}
	t.buildTime = time.Since(start)
	return t, nil
}

// parallelRanges splits [0, n) into worker chunks and runs run on each.
func parallelRanges(n, workers int, run func(lo, hi int)) {
	if workers <= 1 {
		run(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			run(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// sweepSlice fills qk (Q values) and next (V values) for one tau slice from
// the previous slice's V values, reading the successor projections from the
// precomputed transition table: a pure gather/dot-product per (state,
// action), no geometry or interpolation work per slice.
func sweepSlice(m *model, tr *transitions, prev, qk, next []float64, workers int) {
	run := func(lo, hi int) {
		for c := lo; c < hi; c++ {
			var ev [NumAdvisories]float64
			g := c * NumAdvisories * numSigmaOutcomes
			for a := 0; a < NumAdvisories; a++ {
				base := a * m.contSize
				total := 0.0
				for o := 0; o < numSigmaOutcomes; o++ {
					s := g * maxCorners
					e := s + int(tr.counts[g])
					g++
					v := 0.0
					for i := s; i < e; i++ {
						v += tr.weights[i] * prev[base+int(tr.flats[i])]
					}
					total += tr.outcomeW[o] * v
				}
				ev[a] = total
			}
			fillSliceState(m, c, &ev, qk, next)
		}
	}
	parallelRanges(m.contSize, workers, run)
}

// fillSliceState writes the Q and V entries of one continuous vertex from
// the per-action expected next values.
func fillSliceState(m *model, c int, ev *[NumAdvisories]float64, qk, next []float64) {
	for ra := 0; ra < NumAdvisories; ra++ {
		s := m.stateIndex(c, Advisory(ra))
		best := math.Inf(-1)
		for a := 0; a < NumAdvisories; a++ {
			q := m.eventCost(Advisory(ra), Advisory(a)) + ev[a]
			qk[a*m.stateSize+s] = q
			if q > best {
				best = q
			}
		}
		next[s] = best
	}
}

// Config returns the configuration the table was built with.
func (t *Table) Config() Config { return t.cfg }

// Horizon returns the number of tau slices (excluding slice 0).
func (t *Table) Horizon() int { return len(t.q) - 1 }

// BuildTime returns how long the offline solve took (zero for loaded
// tables).
func (t *Table) BuildTime() time.Duration { return t.buildTime }

// NumEntries returns the total number of stored Q values.
func (t *Table) NumEntries() int {
	total := 0
	for _, slice := range t.q {
		total += len(slice)
	}
	return total
}

// stateSize returns the per-slice V-table size.
func (t *Table) stateSize() int { return t.contSize * NumAdvisories }

// clampTau maps a continuous tau to the lower bracketing slice index and
// the blend fraction towards the next slice, saturating at [0, Horizon].
func (t *Table) clampTau(tau float64) (lo int, frac float64) {
	if tau < 0 {
		tau = 0
	}
	hmax := float64(t.Horizon())
	if tau >= hmax {
		tau = hmax
	}
	lo = int(tau)
	return lo, tau - float64(lo)
}

// QValue interpolates the action value at continuous tau: linear blending
// between the bracketing slices (clamped to the horizon).
//
// This is the per-action reference path: one query computes the vertex
// weights and reads a single (ra, a) pair. Scans over the whole action set
// should use AllQValues/BestAdvisory, which share one weight
// computation across every advisory and both bracketing slices; the golden
// equivalence test asserts both paths agree bit for bit.
func (t *Table) QValue(tau, h, dh0, dh1 float64, ra, a Advisory) float64 {
	if !ra.Valid() || !a.Valid() {
		return math.Inf(-1)
	}
	var buf [16]interp.VertexWeight
	pt := [3]float64{h, dh0, dh1}
	ws, _ := t.grid.WeightsAppend(buf[:0], pt[:])
	lo, frac := t.clampTau(tau)
	base := int(a)*t.stateSize() + int(ra)*t.contSize
	v := dotGather(ws, t.q[lo], base)
	if frac > 0 && lo+1 <= t.Horizon() {
		v = v*(1-frac) + frac*dotGather(ws, t.q[lo+1], base)
	}
	return v
}

// dotGather is the interpolation dot product of ws against table[base+...].
func dotGather(ws []interp.VertexWeight, table []float64, base int) float64 {
	v := 0.0
	for _, vw := range ws {
		v += vw.Weight * table[base+vw.Flat]
	}
	return v
}

// AllQValues fills dst with the interpolated Q value of every advisory at
// the given state. The vertex weights depend only on (h, dh0, dh1), so they
// are computed once and reused across all NumAdvisories actions and both
// bracketing tau slices — one weight computation instead of the
// 2 x NumAdvisories a per-action scan would perform — and each slice is
// read in action-major order, matching the Q layout for cache locality.
// The path allocates nothing; invalid ra fills dst with -Inf.
//
// Bit-identical to calling QValue per advisory: the weights are
// deterministic in the query point and the dot products accumulate in the
// same order.
func (t *Table) AllQValues(dst *[NumAdvisories]float64, tau, h, dh0, dh1 float64, ra Advisory) {
	if !ra.Valid() {
		for a := range dst {
			dst[a] = math.Inf(-1)
		}
		return
	}
	var buf [16]interp.VertexWeight
	pt := [3]float64{h, dh0, dh1}
	ws, _ := t.grid.WeightsAppend(buf[:0], pt[:])
	lo, frac := t.clampTau(tau)
	raOff := int(ra) * t.contSize
	stateSize := t.stateSize()
	qlo := t.q[lo]
	for a := 0; a < NumAdvisories; a++ {
		dst[a] = dotGather(ws, qlo, a*stateSize+raOff)
	}
	if frac > 0 && lo+1 <= t.Horizon() {
		qhi := t.q[lo+1]
		for a := 0; a < NumAdvisories; a++ {
			dst[a] = dst[a]*(1-frac) + frac*dotGather(ws, qhi, a*stateSize+raOff)
		}
	}
}

// BestAdvisory returns the advisory maximizing the interpolated Q value at
// the given state, considering only advisories allowed by the mask. It is
// the allocation-free shared-weight scan the online executive uses on every
// decision cycle. The boolean is false when the mask bans every action
// (cannot happen with a default mask, which always allows COC) or ra is
// invalid.
func (t *Table) BestAdvisory(tau, h, dh0, dh1 float64, ra Advisory, mask SenseMask) (Advisory, bool) {
	var q [NumAdvisories]float64
	t.AllQValues(&q, tau, h, dh0, dh1, ra)
	return bestAllowed(&q, mask)
}

// Value returns max_a Q at the state (the optimal state value).
func (t *Table) Value(tau, h, dh0, dh1 float64, ra Advisory) float64 {
	var q [NumAdvisories]float64
	t.AllQValues(&q, tau, h, dh0, dh1, ra)
	best := math.Inf(-1)
	for a := 0; a < NumAdvisories; a++ {
		if q[a] > best {
			best = q[a]
		}
	}
	return best
}

// validateLoaded re-derives internal geometry after deserialization.
func (t *Table) validateLoaded() error {
	m, err := newModel(t.cfg)
	if err != nil {
		return fmt.Errorf("acasx: loaded table has invalid config: %w", err)
	}
	if len(t.q) != t.cfg.Grid.Horizon+1 {
		return fmt.Errorf("acasx: loaded table has %d slices, config wants %d", len(t.q), t.cfg.Grid.Horizon+1)
	}
	want := m.stateSize * NumAdvisories
	for k, slice := range t.q {
		if len(slice) != want {
			return fmt.Errorf("acasx: slice %d has %d entries, want %d", k, len(slice), want)
		}
	}
	t.grid = m.grid
	t.contSize = m.contSize
	return nil
}
