package ga

import "math"

// DistanceScale measures the normalized Euclidean distance between genomes:
// every gene is scaled into [0, 1] by the bounds, and the distance is
// divided by the maximum possible distance sqrt(dims), so it lies in
// [0, 1]. This is the geometry metric the danger archive deduplicates
// encounters by; the scaling is computed once per bounds.
type DistanceScale struct {
	scale []float64
}

// NewDistanceScale precomputes the per-gene 1/width factors of bounds (0
// for degenerate zero-width genes).
func NewDistanceScale(bounds Bounds) DistanceScale {
	scale := make([]float64, bounds.Len())
	for d := range scale {
		w := bounds.Hi[d] - bounds.Lo[d]
		if w > 0 {
			scale[d] = 1 / w
		}
	}
	return DistanceScale{scale: scale}
}

// Distance returns the normalized distance between a and b. Genomes whose
// length does not match the bounds are maximally distant (1).
func (s DistanceScale) Distance(a, b []float64) float64 {
	dims := len(s.scale)
	if dims == 0 || len(a) != dims || len(b) != dims {
		return 1
	}
	sum := 0.0
	for d := 0; d < dims; d++ {
		diff := (a[d] - b[d]) * s.scale[d]
		sum += diff * diff
	}
	return math.Sqrt(sum) / math.Sqrt(float64(dims))
}
