// Package interp implements rectilinear grids and multilinear interpolation.
//
// The model-based optimization pipeline discretizes a continuous encounter
// state space onto a grid (the paper's section IV lists this as a principal
// source of inaccuracy). Two operations are needed:
//
//   - projecting a continuous successor state onto grid vertices with
//     barycentric (multilinear) weights, used while *building* the MDP, and
//   - interpolating a value table at a continuous query point, used while
//     *executing* the generated logic online.
//
// The online lookup takes a point's corner weights from Grid.WeightsAppend
// and dots them with a table. The offline projection locates each axis with
// Grid.Locate, once per distinct coordinate, and expands the same corners.
package interp

import (
	"errors"
	"fmt"
	"sort"
)

// Grid is a rectilinear grid: the Cartesian product of per-dimension
// cut-point axes. Axes must be strictly increasing and hold at least one
// point each.
type Grid struct {
	axes    [][]float64
	strides []int
	size    int
}

// NewGrid builds a grid from per-dimension cut points. The axes are copied.
func NewGrid(axes ...[]float64) (*Grid, error) {
	if len(axes) == 0 {
		return nil, errors.New("interp: grid needs at least one axis")
	}
	g := &Grid{
		axes:    make([][]float64, len(axes)),
		strides: make([]int, len(axes)),
		size:    1,
	}
	for d, axis := range axes {
		if len(axis) == 0 {
			return nil, fmt.Errorf("interp: axis %d is empty", d)
		}
		if !sort.Float64sAreSorted(axis) {
			return nil, fmt.Errorf("interp: axis %d is not sorted", d)
		}
		for i := 1; i < len(axis); i++ {
			if axis[i] == axis[i-1] {
				return nil, fmt.Errorf("interp: axis %d has duplicate cut point %v", d, axis[i])
			}
		}
		g.axes[d] = append([]float64(nil), axis...)
		g.size *= len(axis)
	}
	// Row-major strides: the last dimension varies fastest.
	stride := 1
	for d := len(axes) - 1; d >= 0; d-- {
		g.strides[d] = stride
		stride *= len(axes[d])
	}
	return g, nil
}

// MustGrid is NewGrid but panics on error; for statically known axes.
func MustGrid(axes ...[]float64) *Grid {
	g, err := NewGrid(axes...)
	if err != nil {
		panic(err)
	}
	return g
}

// Uniform returns an axis of n evenly spaced cut points spanning [lo, hi].
// n must be >= 2 unless lo == hi (then a single point is returned).
func Uniform(lo, hi float64, n int) []float64 {
	if n <= 1 || lo == hi {
		return []float64{lo}
	}
	axis := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range axis {
		axis[i] = lo + float64(i)*step
	}
	axis[n-1] = hi // avoid accumulated rounding on the last point
	return axis
}

// Size returns the total number of grid vertices.
func (g *Grid) Size() int { return g.size }

// Axis returns the cut points of dimension d (not a copy; callers must not
// modify it).
func (g *Grid) Axis(d int) []float64 { return g.axes[d] }

// AxisLen returns the number of cut points along dimension d.
func (g *Grid) AxisLen(d int) int { return len(g.axes[d]) }

// Index converts per-dimension indices to a flat row-major index.
func (g *Grid) Index(idx []int) int {
	flat := 0
	for d, i := range idx {
		flat += i * g.strides[d]
	}
	return flat
}

// Point returns the coordinates of the vertex at the given flat index.
func (g *Grid) Point(flat int) []float64 {
	pt := make([]float64, len(g.axes))
	for d, axis := range g.axes {
		pt[d] = axis[flat/g.strides[d]%len(axis)]
	}
	return pt
}

// Locate finds, for value x on axis d, the lower bracketing cut-point index
// and the fractional position within the cell. Queries outside the axis are
// clamped to the boundary (fraction 0 or 1 at the edge cell), which matches
// how ACAS-style tables saturate out-of-range states. WeightsAppend locates
// every coordinate of its point this way; callers that hold some axes fixed
// across many points (the offline MDP projection) locate each axis once and
// expand the corners themselves.
func (g *Grid) Locate(d int, x float64) (lo int, frac float64) {
	axis := g.axes[d]
	n := len(axis)
	if n == 1 || x <= axis[0] {
		return 0, 0
	}
	if x >= axis[n-1] {
		if n == 1 {
			return 0, 0
		}
		return n - 2, 1
	}
	// Binary search for the cell containing x.
	lo = sort.SearchFloat64s(axis, x)
	if axis[lo] == x {
		return lo, 0
	}
	lo--
	return lo, (x - axis[lo]) / (axis[lo+1] - axis[lo])
}

// VertexWeight is one corner of the interpolation cell with its barycentric
// weight.
type VertexWeight struct {
	Flat   int
	Weight float64
}

// Weights computes the multilinear interpolation weights of point among the
// (up to 2^d) vertices of its enclosing cell. Weights are non-negative and
// sum to 1. Points outside the grid are clamped to the boundary. The
// returned slice is freshly allocated; use WeightsAppend to reuse storage in
// hot loops.
func (g *Grid) Weights(point []float64) ([]VertexWeight, error) {
	return g.WeightsAppend(nil, point)
}

// WeightsAppend appends the interpolation weights for point to dst and
// returns the extended slice.
func (g *Grid) WeightsAppend(dst []VertexWeight, point []float64) ([]VertexWeight, error) {
	if len(point) != len(g.axes) {
		return nil, fmt.Errorf("interp: point has %d dims, grid has %d", len(point), len(g.axes))
	}
	// Per-dimension lower index and fraction.
	var losBuf [8]int
	var fracsBuf [8]float64
	los := losBuf[:0]
	fracs := fracsBuf[:0]
	corners := 1
	for d, x := range point {
		lo, frac := g.Locate(d, x)
		los = append(los, lo)
		fracs = append(fracs, frac)
		if frac != 0 {
			corners *= 2
		}
	}
	// Enumerate cell corners; dimensions with zero fraction contribute a
	// single corner, keeping the expansion minimal.
	base := len(dst)
	dst = append(dst, VertexWeight{Flat: 0, Weight: 1})
	for d := range point {
		lo, frac := los[d], fracs[d]
		cur := len(dst)
		for i := base; i < cur; i++ {
			vw := dst[i]
			if frac == 0 {
				dst[i].Flat = vw.Flat + lo*g.strides[d]
				continue
			}
			dst[i] = VertexWeight{Flat: vw.Flat + lo*g.strides[d], Weight: vw.Weight * (1 - frac)}
			dst = append(dst, VertexWeight{Flat: vw.Flat + (lo+1)*g.strides[d], Weight: vw.Weight * frac})
		}
	}
	_ = corners
	return dst, nil
}
