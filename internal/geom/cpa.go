package geom

import "math"

// CPA describes the closest point of approach of two straight-line
// trajectories.
type CPA struct {
	// Time is the (non-negative) time at which the minimum separation is
	// attained, relative to now. Zero if the aircraft are already diverging.
	Time float64
	// Range is the 3-D separation at that time.
	Range float64
	// HorizontalRange is the horizontal separation at that time.
	HorizontalRange float64
	// VerticalRange is the vertical separation at that time.
	VerticalRange float64
}

// CPAOf computes the closest point of approach of two aircraft flying
// straight lines from positions p1, p2 with constant velocities v1, v2.
// Negative CPA times (diverging traffic) are clamped to zero, i.e. the
// current separation is reported.
func CPAOf(p1, v1, p2, v2 Vec3) CPA {
	dp := p2.Sub(p1)
	dv := v2.Sub(v1)
	t := 0.0
	if s := dv.NormSq(); s > 0 {
		t = -dp.Dot(dv) / s
	}
	if t < 0 {
		t = 0
	}
	at := dp.Add(dv.Scale(t))
	return CPA{
		Time:            t,
		Range:           at.Norm(),
		HorizontalRange: at.HorizontalNorm(),
		VerticalRange:   math.Abs(at.Z),
	}
}

// TauUnbounded is the tau value reported when there is no horizontal
// convergence: effectively "no conflict within any horizon".
const TauUnbounded = math.MaxFloat64

// Tau computes the modified time-to-conflict used by collision avoidance
// logic: the time until the horizontal range falls below dmod, assuming the
// current closure rate persists.
//
//	tau = (r - dmod) / rdot   if the traffic is converging (rdot > 0)
//
// where r is the current horizontal range and rdot the closure rate
// (positive when closing). If the traffic is not converging, or the closure
// rate is negligible, TauUnbounded is returned. If the range is already
// inside dmod and the traffic is converging, tau is 0.
func Tau(p1, v1, p2, v2 Vec3, dmod float64) float64 {
	dp := p2.Sub(p1).Horizontal()
	dv := v2.Sub(v1).Horizontal()
	r := dp.Norm()
	if r == 0 {
		return 0
	}
	// Closure rate: -d(r)/dt = -(dp . dv)/r. Positive when converging.
	rdot := -dp.Dot(dv) / r
	const minClosure = 1e-9
	if rdot <= minClosure {
		return TauUnbounded
	}
	tau := (r - dmod) / rdot
	if tau < 0 {
		return 0
	}
	return tau
}
