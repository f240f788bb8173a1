package geom

import (
	"math"
	"testing"
	"testing/quick"
)

const floatTol = 1e-9

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func vecAlmostEqual(a, b Vec3, tol float64) bool {
	return almostEqual(a.X, b.X, tol) && almostEqual(a.Y, b.Y, tol) && almostEqual(a.Z, b.Z, tol)
}

func TestVecBasicOps(t *testing.T) {
	tests := []struct {
		name string
		got  Vec3
		want Vec3
	}{
		{"add", Vec3{1, 2, 3}.Add(Vec3{4, 5, 6}), Vec3{5, 7, 9}},
		{"sub", Vec3{4, 5, 6}.Sub(Vec3{1, 2, 3}), Vec3{3, 3, 3}},
		{"scale", Vec3{1, -2, 3}.Scale(2), Vec3{2, -4, 6}},
		{"horizontal", Vec3{3, 4, 5}.Horizontal(), Vec3{3, 4, 0}},
		{"lerp-mid", Vec3{0, 0, 0}.Lerp(Vec3{2, 4, 6}, 0.5), Vec3{1, 2, 3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !vecAlmostEqual(tt.got, tt.want, floatTol) {
				t.Errorf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestVecNorms(t *testing.T) {
	v := Vec3{3, 4, 12}
	if got := v.Norm(); !almostEqual(got, 13, floatTol) {
		t.Errorf("Norm() = %v, want 13", got)
	}
	if got := v.NormSq(); !almostEqual(got, 169, floatTol) {
		t.Errorf("NormSq() = %v, want 169", got)
	}
	if got := v.HorizontalNorm(); !almostEqual(got, 5, floatTol) {
		t.Errorf("HorizontalNorm() = %v, want 5", got)
	}
}

func TestVecDistances(t *testing.T) {
	a := Vec3{0, 0, 0}
	b := Vec3{3, 4, 10}
	if got := a.VerticalDistanceTo(b); !almostEqual(got, 10, floatTol) {
		t.Errorf("VerticalDistanceTo = %v, want 10", got)
	}
	if got := a.DistanceTo(b); !almostEqual(got, math.Sqrt(125), floatTol) {
		t.Errorf("DistanceTo = %v, want sqrt(125)", got)
	}
}

func TestUnitZeroVector(t *testing.T) {
	z := Vec3{}
	if got := z.Unit(); got != z {
		t.Errorf("Unit of zero vector = %v, want zero", got)
	}
}

func TestUnitLength(t *testing.T) {
	f := func(x, y, z float64) bool {
		v := Vec3{x, y, z}
		if n := v.Norm(); !(n > 0 && n <= 1e150) {
			return true
		}
		return almostEqual(v.Unit().Norm(), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVecString(t *testing.T) {
	got := Vec3{1, 2, 3}.String()
	want := "(1.000, 2.000, 3.000)"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
