package geom

import (
	"math"
	"math/rand/v2"
	"testing"
)

// wrapAngleRef and wrapSignedRef are the reductions without the in-range
// fast paths: every input goes through math.Mod.
func wrapAngleRef(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}

func wrapSignedRef(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	switch {
	case a > math.Pi:
		a -= 2 * math.Pi
	case a <= -math.Pi:
		a += 2 * math.Pi
	}
	return a
}

// sameFloat reports bit equality, counting any NaN equal to any NaN.
func sameFloat(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// FuzzWrapAngle: the in-range fast paths of WrapAngle and WrapSigned must
// return exactly what the math.Mod reduction returns, bit for bit, for
// every float64 — signed zeros, the interval edges and their neighbours,
// subnormals, huge magnitudes, infinities and NaN included.
func FuzzWrapAngle(f *testing.F) {
	edges := []float64{
		0, math.Copysign(0, -1),
		math.Pi, 2 * math.Pi, 3 * math.Pi, math.Pi / 2,
		math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1023,
		1e300, math.MaxFloat64, math.Inf(1),
	}
	for _, e := range edges {
		for _, v := range []float64{e, -e} {
			f.Add(v)
			f.Add(math.Nextafter(v, math.Inf(1)))
			f.Add(math.Nextafter(v, math.Inf(-1)))
		}
	}
	f.Add(math.NaN())
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 64; i++ {
		f.Add(math.Float64frombits(rng.Uint64()))
		f.Add((rng.Float64() - 0.5) * 8 * math.Pi)
	}
	f.Fuzz(func(t *testing.T, a float64) {
		if got, want := WrapAngle(a), wrapAngleRef(a); !sameFloat(got, want) {
			t.Errorf("WrapAngle(%v [%#x]) = %v [%#x], math.Mod reduction gives %v [%#x]",
				a, math.Float64bits(a), got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if got, want := WrapSigned(a), wrapSignedRef(a); !sameFloat(got, want) {
			t.Errorf("WrapSigned(%v [%#x]) = %v [%#x], math.Mod reduction gives %v [%#x]",
				a, math.Float64bits(a), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
