package stats

import (
	"fmt"
	"math"
	"sort"
)

// AllFinite reports whether every value is a finite number (no NaN, no
// infinities) — the shared predicate behind the validation layers that
// must keep non-finite values out of genomes, archives and checkpoints.
func AllFinite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Accumulator collects streaming first and second moments using Welford's
// numerically stable update, together with the extrema of the stream. The
// zero value is an empty accumulator ready for use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add feeds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of observations seen so far.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean, or 0 for an empty accumulator.
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance, or 0 with fewer than two
// observations.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest observation, or 0 for an empty accumulator.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation, or 0 for an empty accumulator.
func (a *Accumulator) Max() float64 { return a.max }

// Sum returns the total of the observations.
func (a *Accumulator) Sum() float64 { return a.mean * float64(a.n) }

// String implements fmt.Stringer with a compact summary.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		a.n, a.Mean(), a.StdDev(), a.min, a.max)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between order statistics. It returns 0 for an empty slice.
// The input is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }
