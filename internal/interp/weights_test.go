package interp

import (
	"math"
	"testing"

	"acasxval/internal/stats"
)

// TestWeightsAppendReusesStorage: appending into a buffer with capacity
// must not allocate and must leave any existing prefix intact — the
// contract the hot lookup and sweep paths rely on.
func TestWeightsAppendReusesStorage(t *testing.T) {
	g := MustGrid(Uniform(0, 10, 11), Uniform(-5, 5, 5))
	buf := make([]VertexWeight, 0, 16)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = g.WeightsAppend(buf[:0], []float64{3.7, 1.2})
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WeightsAppend with capacity allocated %v times per run", allocs)
	}

	// A non-empty prefix survives the append.
	sentinel := VertexWeight{Flat: -1, Weight: 42}
	out, err := g.WeightsAppend([]VertexWeight{sentinel}, []float64{3.7, 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != sentinel {
		t.Fatalf("prefix clobbered: got %+v", out[0])
	}
	if len(out) < 2 {
		t.Fatalf("no weights appended after prefix")
	}
}

// TestWeightsAppendExactVertex: querying exactly on a grid vertex must put
// all interpolation weight on that vertex. Interior vertices collapse to a
// single corner; a query on the last cut point of an axis brackets from
// below with fraction 1, so it may carry zero-weight sibling corners.
func TestWeightsAppendExactVertex(t *testing.T) {
	g := MustGrid(Uniform(0, 4, 5), Uniform(0, 4, 5), Uniform(0, 4, 5))
	for _, tc := range []struct {
		pt      []float64
		minimal bool // all non-top coordinates: expansion must be minimal
	}{
		{[]float64{0, 0, 0}, true},
		{[]float64{1, 2, 3}, true},
		{[]float64{4, 4, 4}, false},
		{[]float64{2, 0, 4}, false},
	} {
		ws, err := g.Weights(tc.pt)
		if err != nil {
			t.Fatal(err)
		}
		want := g.Index([]int{int(tc.pt[0]), int(tc.pt[1]), int(tc.pt[2])})
		if tc.minimal && (len(ws) != 1 || ws[0].Weight != 1 || ws[0].Flat != want) {
			t.Fatalf("vertex query %v: want single unit weight on %d, got %+v", tc.pt, want, ws)
		}
		sum := 0.0
		for _, vw := range ws {
			sum += vw.Weight
			if vw.Weight != 0 && vw.Flat != want {
				t.Fatalf("vertex query %v: weight %v on flat %d, want all weight on %d",
					tc.pt, vw.Weight, vw.Flat, want)
			}
		}
		if sum != 1 {
			t.Fatalf("vertex query %v: weights sum to %v", tc.pt, sum)
		}
	}
}

// TestWeightsAppendOutOfRangeClamping: queries beyond either end of every
// axis clamp to the boundary vertex — the ACAS-style saturation the online
// logic depends on for states outside the table.
func TestWeightsAppendOutOfRangeClamping(t *testing.T) {
	g := MustGrid(Uniform(0, 10, 11), Uniform(-5, 5, 5))
	tests := []struct {
		pt   []float64
		want []int
	}{
		{[]float64{-100, 0}, []int{0, 2}},
		{[]float64{100, 0}, []int{10, 2}},
		{[]float64{5, -99}, []int{5, 0}},
		{[]float64{5, 99}, []int{5, 4}},
		{[]float64{-1, 99}, []int{0, 4}},
	}
	for _, tc := range tests {
		ws, err := g.Weights(tc.pt)
		if err != nil {
			t.Fatal(err)
		}
		// All weight must land on the clamped boundary vertex (queries
		// beyond the top of an axis may carry a zero-weight lower corner).
		want := g.Index(tc.want)
		sum := 0.0
		for _, vw := range ws {
			sum += vw.Weight
			if vw.Weight != 0 && vw.Flat != want {
				t.Fatalf("clamped query %v: weight %v on flat %d, want all weight on %d",
					tc.pt, vw.Weight, vw.Flat, want)
			}
		}
		if sum != 1 {
			t.Fatalf("clamped query %v: weights sum to %v", tc.pt, sum)
		}
	}
}

// TestWeightsAppendSinglePointAxes: degenerate axes with one cut point
// contribute a single corner at index 0 regardless of the query value.
func TestWeightsAppendSinglePointAxes(t *testing.T) {
	g := MustGrid([]float64{7}, Uniform(0, 1, 3), []float64{-2})
	ws, err := g.Weights([]float64{123, 0.25, -456})
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 {
		t.Fatalf("want 2 corners (only the middle axis brackets), got %+v", ws)
	}
	sum := 0.0
	for _, vw := range ws {
		sum += vw.Weight
		if vw.Flat < 0 || vw.Flat >= g.Size() {
			t.Fatalf("corner %d outside grid of size %d", vw.Flat, g.Size())
		}
	}
	if math.Abs(sum-1) > 1e-15 {
		t.Fatalf("weights sum to %v, want 1", sum)
	}

	// Fully degenerate grid: every query lands on the only vertex.
	g1 := MustGrid([]float64{0}, []float64{0})
	ws, err = g1.Weights([]float64{9, -9})
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 || ws[0].Flat != 0 || ws[0].Weight != 1 {
		t.Fatalf("degenerate grid query: got %+v", ws)
	}
}

// TestLocateReproducesWeightsAppend: expanding the per-axis Locate results
// corner by corner, axes in order, reproduces WeightsAppend's corners and
// weights bit for bit: a zero-fraction axis is not split, a split axis
// appends the upper twins after the lower corners, and an upper-clamped
// coordinate keeps its zero-weight lower corner. The offline MDP projection
// relies on this to locate shared coordinates once.
func TestLocateReproducesWeightsAppend(t *testing.T) {
	g := MustGrid(Uniform(-300, 300, 41), Uniform(-12.7, 12.7, 11), []float64{-3, -1, 0, 0.5, 4})
	rng := stats.NewRNG(3)
	var pts [][]float64
	for i := 0; i < 2000; i++ {
		pt := make([]float64, 3)
		for d := range pt {
			axis := g.Axis(d)
			lo, hi := axis[0], axis[len(axis)-1]
			switch rng.IntN(5) {
			case 0: // exactly on a cut point, the top one included
				pt[d] = axis[rng.IntN(len(axis))]
			case 1: // below the axis
				pt[d] = lo - 1 - rng.Float64()
			case 2: // above the axis
				pt[d] = hi + 1 + rng.Float64()
			default:
				pt[d] = lo + rng.Float64()*(hi-lo)
			}
		}
		pts = append(pts, pt)
	}
	for _, pt := range pts {
		want, err := g.Weights(pt)
		if err != nil {
			t.Fatal(err)
		}
		got := []VertexWeight{{Flat: 0, Weight: 1}}
		for d, x := range pt {
			lo, frac := g.Locate(d, x)
			k := len(got)
			for i := 0; i < k; i++ {
				c := got[i]
				if frac == 0 {
					got[i].Flat += lo * g.strides[d]
					continue
				}
				got[i] = VertexWeight{Flat: c.Flat + lo*g.strides[d], Weight: c.Weight * (1 - frac)}
				got = append(got, VertexWeight{Flat: c.Flat + (lo+1)*g.strides[d], Weight: c.Weight * frac})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("point %v: %d corners from Locate, WeightsAppend has %d", pt, len(got), len(want))
		}
		for i := range want {
			if got[i].Flat != want[i].Flat || math.Float64bits(got[i].Weight) != math.Float64bits(want[i].Weight) {
				t.Fatalf("point %v corner %d: Locate gives %+v, WeightsAppend %+v", pt, i, got[i], want[i])
			}
		}
	}
}
