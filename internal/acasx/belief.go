package acasx

import "fmt"

// BeliefSigmas are the standard deviations of the state belief held online.
type BeliefSigmas struct {
	// H is the relative-altitude uncertainty, metres.
	H float64
	// Rate is the vertical-rate uncertainty (per aircraft), m/s.
	Rate float64
	// Tau is the time-to-conflict uncertainty, seconds.
	Tau float64
}

// DefaultBeliefSigmas matches the default ADS-B error model after
// alpha-beta filtering.
func DefaultBeliefSigmas() BeliefSigmas {
	return BeliefSigmas{H: 4, Rate: 0.5, Tau: 1.5}
}

// Validate checks the sigmas.
func (s BeliefSigmas) Validate() error {
	if s.H < 0 || s.Rate < 0 || s.Tau < 0 {
		return fmt.Errorf("acasx: negative belief sigma")
	}
	return nil
}

// NewBeliefLogic creates a QMDP-style executive: instead of looking the
// logic table up at the surveillance point estimate, it integrates the
// action values over a Gaussian belief about the relative state and picks
// the advisory with the best *expected* value.
//
// This addresses the paper's section IV model-structure question — "Is the
// chosen modelling technique (i.e. MDP model) impressive enough ... Or
// should another model (e.g. a POMDP model) be used?" — with the standard
// QMDP approximation used by the real ACAS X for imperfect surveillance:
// solve the underlying MDP offline, then weight its Q values by the state
// belief online.
func NewBeliefLogic(table *Table, sigmas BeliefSigmas) (*Logic, error) {
	if err := sigmas.Validate(); err != nil {
		return nil, err
	}
	return &Logic{table: table, belief: true, sigmas: sigmas}, nil
}

// beliefNodes are the 3-point Gauss-Hermite nodes/weights used per
// uncertain dimension.
var beliefNodes = [3]float64{-1.7320508075688772, 0, 1.7320508075688772}
var beliefWeights = [3]float64{1.0 / 6, 2.0 / 3, 1.0 / 6}

// expectedAllQ integrates the Q value of every advisory over the Gaussian
// belief centred at (tau, h, dh0, dh1), using a tensor grid of
// Gauss-Hermite nodes over the dimensions with non-zero sigma. Each belief
// node performs a single shared-weight table scan (Table.AllQValues) that
// covers the whole action set, instead of re-deriving the interpolation
// weights once per action; the accumulated values are bit-identical to the
// per-action integration.
func (l *Logic) expectedAllQ(dst *[NumAdvisories]float64, tau, h, dh0, dh1 float64, ra Advisory) {
	s := l.sigmas
	for a := range dst {
		dst[a] = 0
	}
	var node [NumAdvisories]float64
	for i, wi := range beliefWeights {
		hh := h + beliefNodes[i]*s.H
		if s.H == 0 && i != 1 {
			continue
		}
		for j, wj := range beliefWeights {
			tt := tau + beliefNodes[j]*s.Tau
			if s.Tau == 0 && j != 1 {
				continue
			}
			for k, wk := range beliefWeights {
				rr := dh1 + beliefNodes[k]*s.Rate
				if s.Rate == 0 && k != 1 {
					continue
				}
				w := wi * wj * wk
				l.table.AllQValues(&node, tt, hh, dh0, rr, ra)
				for a := 0; a < NumAdvisories; a++ {
					dst[a] += w * node[a]
				}
			}
		}
	}
	// Renormalize for skipped (zero-sigma) dimensions.
	norm := 1.0
	if s.H == 0 {
		norm *= beliefWeights[1]
	}
	if s.Tau == 0 {
		norm *= beliefWeights[1]
	}
	if s.Rate == 0 {
		norm *= beliefWeights[1]
	}
	for a := range dst {
		dst[a] /= norm
	}
}

// expectedQ integrates one action's Q value over the belief; kept as the
// per-action reference the belief equivalence test checks expectedAllQ
// against.
func (l *Logic) expectedQ(tau, h, dh0, dh1 float64, ra, a Advisory) float64 {
	s := l.sigmas
	total := 0.0
	for i, wi := range beliefWeights {
		hh := h + beliefNodes[i]*s.H
		if s.H == 0 && i != 1 {
			continue
		}
		for j, wj := range beliefWeights {
			tt := tau + beliefNodes[j]*s.Tau
			if s.Tau == 0 && j != 1 {
				continue
			}
			for k, wk := range beliefWeights {
				rr := dh1 + beliefNodes[k]*s.Rate
				if s.Rate == 0 && k != 1 {
					continue
				}
				w := wi * wj * wk
				total += w * l.table.QValue(tt, hh, dh0, rr, ra, a)
			}
		}
	}
	norm := 1.0
	if s.H == 0 {
		norm *= beliefWeights[1]
	}
	if s.Tau == 0 {
		norm *= beliefWeights[1]
	}
	if s.Rate == 0 {
		norm *= beliefWeights[1]
	}
	return total / norm
}
