package interp

import (
	"math"
	"testing"
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

// TestPointAppendMatchesPoint: the allocation-free vertex-coordinate path
// agrees with Point everywhere and does not allocate with capacity.
func TestPointAppendMatchesPoint(t *testing.T) {
	g := MustGrid(Uniform(-3, 3, 7), Uniform(0, 1, 2), []float64{5})
	buf := make([]float64, 0, 3)
	for flat := 0; flat < g.Size(); flat++ {
		want := g.Point(flat)
		buf = g.PointAppend(buf[:0], flat)
		if len(buf) != len(want) {
			t.Fatalf("flat %d: len %d, want %d", flat, len(buf), len(want))
		}
		for d := range want {
			if buf[d] != want[d] {
				t.Fatalf("flat %d dim %d: %v, want %v", flat, d, buf[d], want[d])
			}
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = g.PointAppend(buf[:0], 11)
	})
	if allocs != 0 {
		t.Fatalf("PointAppend with capacity allocated %v times per run", allocs)
	}
}
