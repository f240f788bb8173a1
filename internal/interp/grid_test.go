package interp

import (
	"math"
	"testing"
	"testing/quick"

	"acasxval/internal/stats"
)

func TestNewGridErrors(t *testing.T) {
	tests := []struct {
		name string
		axes [][]float64
	}{
		{"no axes", nil},
		{"empty axis", [][]float64{{}}},
		{"unsorted axis", [][]float64{{1, 0}}},
		{"duplicate cut", [][]float64{{0, 0, 1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewGrid(tt.axes...); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestMustGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGrid should panic on bad axes")
		}
	}()
	MustGrid([]float64{1, 0})
}

func TestUniform(t *testing.T) {
	axis := Uniform(0, 10, 5)
	want := []float64{0, 2.5, 5, 7.5, 10}
	if len(axis) != len(want) {
		t.Fatalf("len = %d, want %d", len(axis), len(want))
	}
	for i := range want {
		if math.Abs(axis[i]-want[i]) > 1e-12 {
			t.Errorf("axis[%d] = %v, want %v", i, axis[i], want[i])
		}
	}
	if got := Uniform(3, 3, 10); len(got) != 1 || got[0] != 3 {
		t.Errorf("degenerate Uniform = %v", got)
	}
	if got := Uniform(0, 1, 1); len(got) != 1 {
		t.Errorf("single point Uniform = %v", got)
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	g := MustGrid(Uniform(0, 1, 3), Uniform(0, 1, 4), Uniform(0, 1, 5))
	if g.Size() != 60 {
		t.Fatalf("Size = %d, want 60", g.Size())
	}
	for flat := 0; flat < g.Size(); flat++ {
		idx := make([]int, len(g.axes))
		for d := range g.axes {
			idx[d] = flat / g.strides[d] % len(g.axes[d])
		}
		if got := g.Index(idx); got != flat {
			t.Fatalf("Index(coords of %d) = %d", flat, got)
		}
	}
}

func TestPoint(t *testing.T) {
	g := MustGrid([]float64{0, 1}, []float64{10, 20, 30})
	// flat index 4 -> coords (1, 1) -> point (1, 20).
	pt := g.Point(4)
	if pt[0] != 1 || pt[1] != 20 {
		t.Errorf("Point(4) = %v, want [1 20]", pt)
	}
}

func TestWeightsOnVertex(t *testing.T) {
	g := MustGrid(Uniform(0, 10, 11), Uniform(-5, 5, 11))
	ws, err := g.Weights([]float64{3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 {
		t.Fatalf("expected single vertex weight, got %d", len(ws))
	}
	if ws[0].Weight != 1 {
		t.Errorf("weight = %v, want 1", ws[0].Weight)
	}
	want := g.Index([]int{3, 5})
	if ws[0].Flat != want {
		t.Errorf("flat = %d, want %d", ws[0].Flat, want)
	}
}

func TestWeightsMidCell(t *testing.T) {
	g := MustGrid([]float64{0, 1}, []float64{0, 1})
	ws, err := g.Weights([]float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 4 {
		t.Fatalf("expected 4 corners, got %d", len(ws))
	}
	sum := 0.0
	byFlat := map[int]float64{}
	for _, w := range ws {
		sum += w.Weight
		byFlat[w.Flat] = w.Weight
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum to %v", sum)
	}
	// Corner (0,0) weight = 0.75*0.25, (0,1) = 0.75*0.75, etc.
	checks := map[int]float64{
		g.Index([]int{0, 0}): 0.75 * 0.25,
		g.Index([]int{0, 1}): 0.75 * 0.75,
		g.Index([]int{1, 0}): 0.25 * 0.25,
		g.Index([]int{1, 1}): 0.25 * 0.75,
	}
	for flat, want := range checks {
		if got := byFlat[flat]; math.Abs(got-want) > 1e-12 {
			t.Errorf("corner %d weight = %v, want %v", flat, got, want)
		}
	}
}

func TestWeightsClampOutside(t *testing.T) {
	g := MustGrid(Uniform(0, 10, 11))
	for _, x := range []float64{-5, 15} {
		ws, err := g.Weights([]float64{x})
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, w := range ws {
			sum += w.Weight
			if w.Flat < 0 || w.Flat >= g.Size() {
				t.Fatalf("out-of-range vertex %d for query %v", w.Flat, x)
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("weights for clamped query %v sum to %v", x, sum)
		}
	}
}

func TestWeightsDimMismatch(t *testing.T) {
	g := MustGrid(Uniform(0, 1, 2))
	if _, err := g.Weights([]float64{1, 2}); err == nil {
		t.Error("expected dimension mismatch error")
	}
}

// interpolate evaluates the multilinear interpolation of table at point
// from the grid's weights: the reference the interpolation tests check the
// weights against.
func interpolate(t *testing.T, g *Grid, table []float64, point []float64) float64 {
	t.Helper()
	ws, err := g.Weights(point)
	if err != nil {
		t.Fatal(err)
	}
	v := 0.0
	for _, w := range ws {
		v += w.Weight * table[w.Flat]
	}
	return v
}

// TestInterpolateReproducesMultilinear is the core property: multilinear
// interpolation over a table sampled from an affine-per-dimension function
// reproduces that function exactly inside the grid.
func TestInterpolateReproducesMultilinear(t *testing.T) {
	g := MustGrid(Uniform(0, 4, 5), Uniform(-2, 2, 9), []float64{0, 1, 3, 7})
	f := func(x, y, z float64) float64 { return 2*x - 3*y + 0.5*z + x*y - y*z + 1 }
	table := make([]float64, g.Size())
	for i := range table {
		pt := g.Point(i)
		table[i] = f(pt[0], pt[1], pt[2])
	}
	rng := stats.NewRNG(1)
	for trial := 0; trial < 500; trial++ {
		x := rng.Float64() * 4
		y := rng.Float64()*4 - 2
		z := rng.Float64() * 7
		got := interpolate(t, g, table, []float64{x, y, z})
		// Multilinear interpolation is exact for functions affine in each
		// variable (bilinear cross terms included) only within one cell per
		// term; x*y and y*z are exactly representable because they are
		// multilinear. Tolerance covers rounding.
		want := f(x, y, z)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("trial %d: interp(%v,%v,%v) = %v, want %v", trial, x, y, z, got, want)
		}
	}
}

// TestWeightsPartitionOfUnity: weights are a partition of unity and in [0,1]
// for arbitrary queries.
func TestWeightsPartitionOfUnity(t *testing.T) {
	g := MustGrid(Uniform(-10, 10, 7), []float64{0, 2, 3, 10}, Uniform(0, 1, 2))
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		pt := []float64{math.Mod(a, 30), math.Mod(b, 30), math.Mod(c, 3)}
		ws, err := g.Weights(pt)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, w := range ws {
			if w.Weight < 0 || w.Weight > 1 {
				return false
			}
			if w.Flat < 0 || w.Flat >= g.Size() {
				return false
			}
			sum += w.Weight
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSingletonAxis(t *testing.T) {
	// Grids with singleton axes arise when a dimension is fixed.
	g := MustGrid([]float64{5}, Uniform(0, 1, 3))
	ws, err := g.Weights([]float64{99, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, w := range ws {
		sum += w.Weight
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum to %v", sum)
	}
	table := []float64{1, 2, 3}
	// Query halfway through the first cell of the second axis: (1+2)/2.
	if got := interpolate(t, g, table, []float64{5, 0.25}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("interpolation = %v, want 1.5", got)
	}
}

func BenchmarkWeights4D(b *testing.B) {
	g := MustGrid(Uniform(-300, 300, 41), Uniform(-15, 15, 11), Uniform(-15, 15, 11), Uniform(0, 4, 5))
	pt := []float64{12.3, -4.5, 6.7, 2.1}
	var buf [16]VertexWeight
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws, err := g.WeightsAppend(buf[:0], pt)
		if err != nil {
			b.Fatal(err)
		}
		_ = ws
	}
}
