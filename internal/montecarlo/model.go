// Package montecarlo implements the statistical-encounter-model Monte-Carlo
// evaluation path of the development process (paper sections II and IV):
// sample encounters from a parametric airspace model, simulate the
// closed-loop system, and estimate event probabilities — mid-air collision
// rate, alert rate, risk ratio against the unequipped baseline — with
// confidence intervals.
//
// The paper notes that the real statistical encounter models [5, 6] were
// fitted to radar data of manned aircraft and that nothing equivalent
// exists for UAVs ("It is unclear how representative the encounter models
// are of the UAV encounters"). This package therefore provides a
// configurable parametric stand-in over the same nine encounter parameters:
// each parameter gets an independent distribution (uniform, truncated
// normal, or a discrete mixture of those), which exercises the same
// code path the real models would.
package montecarlo

import (
	"fmt"
	"math/rand/v2"

	"acasxval/internal/encounter"
	"acasxval/internal/geom"
)

// Distribution samples one scalar parameter.
type Distribution interface {
	Sample(rng *rand.Rand) float64
	// Validate checks the distribution parameters.
	Validate() error
}

// Uniform is the uniform distribution on [Min, Max].
type Uniform struct {
	Min, Max float64
}

var _ Distribution = Uniform{}

// Sample implements Distribution.
func (u Uniform) Sample(rng *rand.Rand) float64 {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + rng.Float64()*(u.Max-u.Min)
}

// Validate implements Distribution.
func (u Uniform) Validate() error {
	if u.Max < u.Min {
		return fmt.Errorf("montecarlo: uniform [%v, %v] empty", u.Min, u.Max)
	}
	return nil
}

// TruncNormal is a normal distribution truncated to [Min, Max] by
// rejection (falling back to clamping after a bounded number of attempts).
type TruncNormal struct {
	Mean, Sigma float64
	Min, Max    float64
}

var _ Distribution = TruncNormal{}

// Sample implements Distribution.
func (n TruncNormal) Sample(rng *rand.Rand) float64 {
	for i := 0; i < 64; i++ {
		x := n.Mean + n.Sigma*rng.NormFloat64()
		if x >= n.Min && x <= n.Max {
			return x
		}
	}
	return geom.Clamp(n.Mean, n.Min, n.Max)
}

// Validate implements Distribution.
func (n TruncNormal) Validate() error {
	if n.Sigma < 0 {
		return fmt.Errorf("montecarlo: negative sigma %v", n.Sigma)
	}
	if n.Max < n.Min {
		return fmt.Errorf("montecarlo: truncation [%v, %v] empty", n.Min, n.Max)
	}
	return nil
}

// Constant is the degenerate distribution that always returns Value. It
// turns the Monte-Carlo harness into a fixed-scenario evaluator: a model
// whose every parameter is Constant replays one encounter geometry while
// the dynamics and sensor noise still vary per sample.
type Constant struct {
	Value float64
}

var _ Distribution = Constant{}

// Sample implements Distribution.
func (c Constant) Sample(*rand.Rand) float64 { return c.Value }

// Validate implements Distribution.
func (Constant) Validate() error { return nil }

// Mixture samples from one of its weighted components. Construct with
// NewMixture (or call Prepared after hand-assembly) so the cumulative
// weights are precomputed once: Sample sits on the per-episode draw path of
// every Monte-Carlo evaluation and must not re-sum the weights each call.
type Mixture struct {
	Components []Distribution
	Weights    []float64
	// cum caches the running weight sums (cum[i] is the sum of
	// Weights[:i+1]); stale if Weights is mutated after Prepared.
	cum []float64
}

var _ Distribution = Mixture{}

// NewMixture validates the components and weights and returns a mixture
// with its cumulative weights precomputed.
func NewMixture(components []Distribution, weights []float64) (Mixture, error) {
	m := Mixture{Components: components, Weights: weights}
	if err := m.Validate(); err != nil {
		return Mixture{}, err
	}
	return m.Prepared(), nil
}

// Prepared returns a copy of the mixture with cumulative weights
// precomputed, recursively preparing nested mixtures. An already-prepared
// mixture returns itself unchanged, so re-preparing (every estimate prepares its
// model on every call) is free.
func (m Mixture) Prepared() Mixture {
	if len(m.cum) == len(m.Weights) && len(m.Weights) > 0 {
		return m
	}
	cum := make([]float64, len(m.Weights))
	acc := 0.0
	for i, w := range m.Weights {
		acc += w
		cum[i] = acc
	}
	comps := make([]Distribution, len(m.Components))
	for i, c := range m.Components {
		comps[i] = prepared(c)
	}
	m.cum = cum
	m.Components = comps
	return m
}

// prepared returns d with any mixture weight caches precomputed.
func prepared(d Distribution) Distribution {
	if m, ok := d.(Mixture); ok {
		return m.Prepared()
	}
	return d
}

// Sample implements Distribution.
func (m Mixture) Sample(rng *rand.Rand) float64 {
	cum := m.cum
	if len(cum) == 0 || len(cum) != len(m.Weights) {
		// Hand-assembled mixture without Prepared: sum on the fly. The
		// running sums are computed left to right exactly as Prepared
		// caches them, so both paths pick identical components.
		total := 0.0
		for _, w := range m.Weights {
			total += w
		}
		u := rng.Float64() * total
		acc := 0.0
		for i, w := range m.Weights {
			acc += w
			if u < acc {
				return m.Components[i].Sample(rng)
			}
		}
		return m.Components[len(m.Components)-1].Sample(rng)
	}
	u := rng.Float64() * cum[len(cum)-1]
	for i, acc := range cum {
		if u < acc {
			return m.Components[i].Sample(rng)
		}
	}
	return m.Components[len(m.Components)-1].Sample(rng)
}

// Validate implements Distribution.
func (m Mixture) Validate() error {
	if len(m.Components) == 0 || len(m.Components) != len(m.Weights) {
		return fmt.Errorf("montecarlo: mixture has %d components and %d weights",
			len(m.Components), len(m.Weights))
	}
	total := 0.0
	for i, w := range m.Weights {
		if w < 0 {
			return fmt.Errorf("montecarlo: negative mixture weight %v", w)
		}
		total += w
		if err := m.Components[i].Validate(); err != nil {
			return err
		}
	}
	if total <= 0 {
		return fmt.Errorf("montecarlo: mixture weights sum to %v", total)
	}
	return nil
}

// EncounterModel is the statistical encounter model: one distribution per
// encounter parameter. Sampled encounters are clamped into Ranges so that
// every sample is a valid conflict geometry.
type EncounterModel struct {
	OwnGroundSpeed         Distribution
	OwnVerticalSpeed       Distribution
	TimeToCPA              Distribution
	HorizontalMissDistance Distribution
	ApproachAngle          Distribution
	VerticalMissDistance   Distribution
	IntruderGroundSpeed    Distribution
	IntruderBearing        Distribution
	IntruderVerticalSpeed  Distribution
	// Ranges clips samples into the supported encounter space.
	Ranges encounter.Ranges
}

// DefaultEncounterModel returns a plausible UAV airspace model: mostly
// cruising aircraft (vertical speed concentrated near zero via a mixture
// with climbing/descending modes), uniform geometry angles, and conflict
// CPA offsets inside the NMAC cylinder.
func DefaultEncounterModel() EncounterModel {
	ranges := encounter.DefaultRanges()
	vsMix := Mixture{
		Components: []Distribution{
			TruncNormal{Mean: 0, Sigma: 0.5, Min: -7.5, Max: 7.5},  // level
			TruncNormal{Mean: 3.5, Sigma: 1.5, Min: 0, Max: 7.5},   // climbing
			TruncNormal{Mean: -3.5, Sigma: 1.5, Min: -7.5, Max: 0}, // descending
		},
		Weights: []float64{0.6, 0.2, 0.2},
	}.Prepared()
	return EncounterModel{
		OwnGroundSpeed:         TruncNormal{Mean: 40, Sigma: 10, Min: 20, Max: 60},
		OwnVerticalSpeed:       vsMix,
		TimeToCPA:              Uniform{Min: 20, Max: 40},
		HorizontalMissDistance: Uniform{Min: 0, Max: geom.NMACHorizontal},
		ApproachAngle:          Uniform{Min: 0, Max: 2 * 3.141592653589793},
		VerticalMissDistance:   TruncNormal{Mean: 0, Sigma: 15, Min: -geom.NMACVertical, Max: geom.NMACVertical},
		IntruderGroundSpeed:    TruncNormal{Mean: 40, Sigma: 10, Min: 20, Max: 60},
		IntruderBearing:        Uniform{Min: 0, Max: 2 * 3.141592653589793},
		IntruderVerticalSpeed:  vsMix,
		Ranges:                 ranges,
	}
}

// PointModel returns the degenerate encounter model that always yields p:
// every parameter distribution is Constant and the clamping ranges collapse
// onto the point. Evaluating a PointModel estimates the stochastic outcome
// distribution (dynamics + sensor noise) of one fixed scenario — the
// per-cell workload of the campaign sweep engine.
func PointModel(p encounter.Params) EncounterModel {
	v := p.Vector()
	pointRange := func(x float64) encounter.Range { return encounter.Range{Min: x, Max: x} }
	return EncounterModel{
		OwnGroundSpeed:         Constant{v[0]},
		OwnVerticalSpeed:       Constant{v[1]},
		TimeToCPA:              Constant{v[2]},
		HorizontalMissDistance: Constant{v[3]},
		ApproachAngle:          Constant{v[4]},
		VerticalMissDistance:   Constant{v[5]},
		IntruderGroundSpeed:    Constant{v[6]},
		IntruderBearing:        Constant{v[7]},
		IntruderVerticalSpeed:  Constant{v[8]},
		Ranges: encounter.Ranges{
			OwnGroundSpeed:         pointRange(v[0]),
			OwnVerticalSpeed:       pointRange(v[1]),
			TimeToCPA:              pointRange(v[2]),
			HorizontalMissDistance: pointRange(v[3]),
			ApproachAngle:          pointRange(v[4]),
			VerticalMissDistance:   pointRange(v[5]),
			IntruderGroundSpeed:    pointRange(v[6]),
			IntruderBearing:        pointRange(v[7]),
			IntruderVerticalSpeed:  pointRange(v[8]),
		},
	}
}

// Validate checks every component distribution.
func (m EncounterModel) Validate() error {
	for i, d := range m.all() {
		if d == nil {
			return fmt.Errorf("montecarlo: distribution %d is nil", i)
		}
		if err := d.Validate(); err != nil {
			return err
		}
	}
	return m.Ranges.Validate()
}

func (m EncounterModel) all() []Distribution {
	return []Distribution{
		m.OwnGroundSpeed, m.OwnVerticalSpeed, m.TimeToCPA,
		m.HorizontalMissDistance, m.ApproachAngle, m.VerticalMissDistance,
		m.IntruderGroundSpeed, m.IntruderBearing, m.IntruderVerticalSpeed,
	}
}

// Prepared returns a copy of the model with every mixture's cumulative
// weights precomputed, so per-episode draws never re-sum mixture weights.
// Every estimate prepares its model once up front; callers sampling a model
// directly in a loop should do the same.
func (m EncounterModel) Prepared() EncounterModel {
	m.OwnGroundSpeed = prepared(m.OwnGroundSpeed)
	m.OwnVerticalSpeed = prepared(m.OwnVerticalSpeed)
	m.TimeToCPA = prepared(m.TimeToCPA)
	m.HorizontalMissDistance = prepared(m.HorizontalMissDistance)
	m.ApproachAngle = prepared(m.ApproachAngle)
	m.VerticalMissDistance = prepared(m.VerticalMissDistance)
	m.IntruderGroundSpeed = prepared(m.IntruderGroundSpeed)
	m.IntruderBearing = prepared(m.IntruderBearing)
	m.IntruderVerticalSpeed = prepared(m.IntruderVerticalSpeed)
	return m
}

// Sample draws one encounter from the model.
func (m EncounterModel) Sample(rng *rand.Rand) encounter.Params {
	var buf [encounter.NumParams]float64
	return m.SampleInto(rng, &buf)
}

// SampleInto draws one encounter from the model, writing the nine raw
// parameter draws into buf in genome order and returning the clamped
// parameters. It is Sample without the per-draw slice allocation: the
// evaluator's per-worker worlds each own one buffer and reuse it for every
// episode. Pointer receiver so the (interface-valued) distribution fields
// are not copied per draw.
func (m *EncounterModel) SampleInto(rng *rand.Rand, buf *[encounter.NumParams]float64) encounter.Params {
	buf[0] = m.OwnGroundSpeed.Sample(rng)
	buf[1] = m.OwnVerticalSpeed.Sample(rng)
	buf[2] = m.TimeToCPA.Sample(rng)
	buf[3] = m.HorizontalMissDistance.Sample(rng)
	buf[4] = m.ApproachAngle.Sample(rng)
	buf[5] = m.VerticalMissDistance.Sample(rng)
	buf[6] = m.IntruderGroundSpeed.Sample(rng)
	buf[7] = m.IntruderBearing.Sample(rng)
	buf[8] = m.IntruderVerticalSpeed.Sample(rng)
	p, _ := encounter.FromVector(buf[:])
	return m.Ranges.Clamp(p)
}
