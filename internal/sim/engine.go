// Package sim is the agent-based simulation engine for two-UAV encounter
// studies: a discrete-time scheduler stepping UAV agents, a pluggable
// collision avoidance System interface, ADS-B surveillance with sensor
// noise and optional track filtering, sense coordination between aircraft,
// and the paper's two monitors — the Proximity Measurer ("measures the
// proximities (in horizontal distance and vertical distance) between the
// own-ship and the intruder at each simulation step, and records the
// minimum proximity experienced") and the Accident Detector ("monitors the
// simulations and detects any mid-air collisions").
//
// The engine fills the role MASON plays in the paper's Java tool: it runs
// headless and deterministic under a seed, which is what makes it usable
// inside a search loop.
package sim

import (
	"fmt"
	"math"
	"math/rand/v2"

	"acasxval/internal/geom"
	"acasxval/internal/uav"
)

// Sense is a vertical maneuver direction used for coordination.
type Sense int

// Maneuver senses.
const (
	SenseNone Sense = 0
	SenseUp   Sense = 1
	SenseDown Sense = -1
)

// Constraint carries coordination restrictions into a decision: senses the
// peer aircraft has claimed.
type Constraint struct {
	BanUp   bool
	BanDown bool
}

// Decision is the output of one collision avoidance decision cycle.
type Decision struct {
	// Cmd is the vertical maneuver command; meaningful when HasCmd.
	Cmd uav.Command
	// HasCmd is false when the system commands a return to plan (clear of
	// conflict).
	HasCmd bool
	// Alerting reports whether the system is actively advising.
	Alerting bool
	// NewAlert reports a no-alert -> alert transition this cycle.
	NewAlert bool
	// Sense is the claimed vertical direction, for coordination.
	Sense Sense
}

// System is a pluggable pairwise collision avoidance system under test:
// Decide runs once per decision period with the aircraft's own true state
// and one (noisy, possibly filtered) intruder track. It remains the
// transport type of every factory and CLI; the engine itself consults the
// multi-intruder-first AvoidanceSystem contract, lifting pairwise systems
// onto it with Adapt.
type System interface {
	// Decide runs one decision cycle.
	Decide(now float64, own uav.State, intrPos, intrVel geom.Vec3, c Constraint) Decision
	// Reset prepares the system for a fresh encounter.
	Reset()
}

// AppendSystemsFromPair fans a pairwise system factory out to the K+1
// systems of a K-intruder encounter, appending to dst: the factory's first
// pair equips the ownship and intruder 1, each further call contributes
// one more intruder (its ownship half is discarded). Every pairwise-factory
// consumer (the Monte-Carlo evaluator, cmd/encsim) shares this contract
// through here, so a future change to the fan-out cannot drift between CLI
// replays and estimates.
func AppendSystemsFromPair(dst []System, factory func() (System, System), k int) []System {
	own, intr := factory()
	dst = append(dst, own, intr)
	for j := 2; j <= k; j++ {
		_, extra := factory()
		dst = append(dst, extra)
	}
	return dst
}

// NoSystem is the unequipped baseline: it never commands anything. It is
// stateless, so one value can equip any number of aircraft.
type NoSystem struct{}

var (
	_ System          = NoSystem{}
	_ AvoidanceSystem = NoSystem{}
)

// Decide implements System: always clear of conflict.
func (NoSystem) Decide(float64, uav.State, geom.Vec3, geom.Vec3, Constraint) Decision {
	return Decision{}
}

// DecideTracks implements AvoidanceSystem: always clear of conflict.
func (NoSystem) DecideTracks(float64, uav.State, []geom.Track, Constraint) Decision {
	return Decision{}
}

// Reset implements System.
func (NoSystem) Reset() {}

// ProximityMeasurer tracks the minimum separations seen so far. The three
// minima are tracked independently (the minimum horizontal separation may
// occur at a different instant than the minimum vertical separation), plus
// the joint 3-D minimum used by the search fitness.
//
// The horizontal and 3-D minima are tracked in squared-distance space: the
// measurer observes every monitor sub-step of every simulation, so ranking
// candidates by squared distance and deferring the square root to the
// accessors removes two square roots per observation from the episode hot
// path. Min3D is bit-identical to the former per-observation form
// (sqrt is monotone and Vec3.Norm uses the same sum order); MinHorizontal
// may differ from the pre-squared-space releases in the last ULP, since it
// now derives from Sqrt(dx*dx+dy*dy) rather than math.Hypot.
type ProximityMeasurer struct {
	minHorizontalSq float64
	minVertical     float64
	min3DSq         float64
	at3D            float64 // time of the 3-D minimum
	seen            bool
}

// NewProximityMeasurer returns an empty measurer.
func NewProximityMeasurer() *ProximityMeasurer {
	p := &ProximityMeasurer{}
	p.Reset()
	return p
}

// Reset returns the measurer to its fresh-from-New state so one measurer
// can monitor many encounters without reallocation.
func (p *ProximityMeasurer) Reset() {
	p.minHorizontalSq = math.Inf(1)
	p.minVertical = math.Inf(1)
	p.min3DSq = math.Inf(1)
	p.at3D = 0
	p.seen = false
}

// Observe feeds one pair of positions at time now.
func (p *ProximityMeasurer) Observe(now float64, a, b geom.Vec3) {
	d2h := a.HorizontalDistanceSquaredTo(b)
	dv := a.VerticalDistanceTo(b)
	// d2h + dv*dv reassociates DistanceSquaredTo exactly: the full squared
	// distance sums left to right, so its first two terms are the squared
	// horizontal distance and squaring the vertical distance recovers
	// dz*dz bit for bit (negation is exact).
	p.ObserveSq(now, d2h, dv, d2h+dv*dv)
}

// ObserveSq feeds one pair observation whose distances the caller already
// computed: the squared horizontal separation, the vertical separation, and
// the squared 3-D separation. The episode hot path observes every pair with
// two monitors; sharing one distance computation between them through this
// entry point removes half the arithmetic without touching the recorded
// minima (see Observe for the exact decomposition).
func (p *ProximityMeasurer) ObserveSq(now, d2h, dv, d23 float64) {
	p.seen = true
	if d2h < p.minHorizontalSq {
		p.minHorizontalSq = d2h
	}
	if dv < p.minVertical {
		p.minVertical = dv
	}
	if d23 < p.min3DSq {
		p.min3DSq = d23
		p.at3D = now
	}
}

// MinHorizontal returns the minimum horizontal separation observed.
func (p *ProximityMeasurer) MinHorizontal() float64 { return math.Sqrt(p.minHorizontalSq) }

// MinVertical returns the minimum vertical separation observed.
func (p *ProximityMeasurer) MinVertical() float64 { return p.minVertical }

// Min3D returns the minimum 3-D separation observed and its time.
func (p *ProximityMeasurer) Min3D() (float64, float64) { return math.Sqrt(p.min3DSq), p.at3D }

// Seen reports whether any observation was made.
func (p *ProximityMeasurer) Seen() bool { return p.seen }

// AccidentDetector detects near mid-air collisions: simultaneous horizontal
// and vertical proximity inside the NMAC cylinder (500 ft / 100 ft) — the
// paper's mid-air collision criterion (the same cylinder the MDP's
// collision cost is attached to). The horizontal test runs in
// squared-distance space for the same hot-path reason as the measurer.
type AccidentDetector struct {
	horizontalLimitSq float64
	verticalLimit     float64
	nmac              bool
	nmacTime          float64
}

// NewAccidentDetector returns a detector with the standard NMAC cylinder.
func NewAccidentDetector() *AccidentDetector {
	d := &AccidentDetector{}
	d.Reset()
	return d
}

// Reset clears any detected collision and (re)installs the standard NMAC
// cylinder, so one detector — or a zero value — can monitor many encounters
// without reallocation.
func (d *AccidentDetector) Reset() {
	d.horizontalLimitSq = geom.NMACHorizontal * geom.NMACHorizontal
	d.verticalLimit = geom.NMACVertical
	d.nmac = false
	d.nmacTime = 0
}

// Observe feeds one pair of positions at time now.
func (d *AccidentDetector) Observe(now float64, a, b geom.Vec3) {
	d.ObserveSq(now, a.HorizontalDistanceSquaredTo(b), a.VerticalDistanceTo(b))
}

// ObserveSq feeds one pair observation from precomputed distances (squared
// horizontal, vertical), sharing the arithmetic with ProximityMeasurer on
// the episode hot path.
func (d *AccidentDetector) ObserveSq(now, d2h, dv float64) {
	if d.nmac {
		return
	}
	if d2h < d.horizontalLimitSq && dv < d.verticalLimit {
		d.nmac = true
		d.nmacTime = now
	}
}

// NMAC reports whether a near mid-air collision was detected, and when.
func (d *AccidentDetector) NMAC() (bool, float64) { return d.nmac, d.nmacTime }

// Clock tracks simulation time.
type Clock struct {
	now float64
	dt  float64
}

// NewClock creates a clock with the given step.
func NewClock(dt float64) (*Clock, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("sim: non-positive dt %v", dt)
	}
	return &Clock{dt: dt}, nil
}

// Now returns the current simulation time.
func (c *Clock) Now() float64 { return c.now }

// Dt returns the step size.
func (c *Clock) Dt() float64 { return c.dt }

// Tick advances the clock one step and returns the new time.
func (c *Clock) Tick() float64 {
	c.now += c.dt
	return c.now
}

// Reset rewinds the clock to zero, keeping its step.
func (c *Clock) Reset() { c.now = 0 }

// streamSeedWords returns the PCG state words of component stream i under
// seed — the words Rand seeds a fresh generator with, exposed so the
// reusable Runner can re-seed its generators to the identical streams.
func streamSeedWords(seed uint64, i int) (uint64, uint64) {
	return seed + uint64(i)*0x9E3779B97F4A7C15, seed ^ 0xD1B54A32D192ED03 + uint64(i)
}

// Rand derives a child RNG stream for component index i of a run seeded
// with seed: every aircraft/sensor gets an independent deterministic
// stream, so adding a consumer does not perturb the others.
func Rand(seed uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(streamSeedWords(seed, i)))
}
