package sim

import (
	"fmt"
	"math/rand/v2"

	"acasxval/internal/encounter"
	"acasxval/internal/fault"
	"acasxval/internal/geom"
	"acasxval/internal/stats"
	"acasxval/internal/tracker"
	"acasxval/internal/uav"
)

// RunConfig parameterizes one encounter simulation.
type RunConfig struct {
	// Dt is the integration step, seconds (default 0.1).
	Dt float64
	// DecisionPeriod is the collision avoidance decision interval, seconds
	// (default 1, the usual surveillance rate).
	DecisionPeriod float64
	// Overtime is how long the simulation continues past the nominal time
	// to CPA, seconds (default 30): late conflicts — the tail-approach
	// failure mode — happen after the nominal CPA.
	Overtime float64
	// OwnUAV and IntruderUAV are the aircraft performance/disturbance
	// models (IntruderUAV applies to every intruder of a multi-intruder
	// encounter).
	OwnUAV, IntruderUAV uav.Config
	// Sensor is the ADS-B error model applied to each aircraft's view of
	// the others.
	Sensor uav.SensorModel
	// UseTracker enables alpha-beta filtering of the received tracks.
	UseTracker bool
	// Tracker is the filter configuration when UseTracker is set.
	Tracker tracker.Config
	// Coordination enables maneuver-sense coordination between the
	// aircraft (paper section VI.C).
	Coordination bool
	// Faults layers deterministic surveillance degradation — burst
	// dropout, detection-range limit, measurement latency, scheduled
	// coordination loss — on top of the sensor model. The zero value is
	// fault-free and bit-identical to the historical path.
	Faults fault.Profile
	// RecordTrajectory retains per-step trajectory points in the Result.
	RecordTrajectory bool
	// MonitorSubSteps sub-samples each integration step when feeding the
	// monitors (default 2).
	MonitorSubSteps int
}

// DefaultRunConfig returns the configuration used by the paper-style
// experiments: 1 Hz decisions, noisy ADS-B, coordination on.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Dt:              0.1,
		DecisionPeriod:  1.0,
		Overtime:        30,
		OwnUAV:          uav.DefaultConfig(),
		IntruderUAV:     uav.DefaultConfig(),
		Sensor:          uav.DefaultSensorModel(),
		UseTracker:      true,
		Tracker:         tracker.DefaultConfig(),
		Coordination:    true,
		MonitorSubSteps: 2,
	}
}

// Validate checks the configuration.
func (c RunConfig) Validate() error {
	if c.Dt <= 0 {
		return fmt.Errorf("sim: Dt %v <= 0", c.Dt)
	}
	if c.DecisionPeriod < c.Dt {
		return fmt.Errorf("sim: DecisionPeriod %v < Dt %v", c.DecisionPeriod, c.Dt)
	}
	if c.Overtime < 0 {
		return fmt.Errorf("sim: negative Overtime %v", c.Overtime)
	}
	if err := c.OwnUAV.Validate(); err != nil {
		return err
	}
	if err := c.IntruderUAV.Validate(); err != nil {
		return err
	}
	if err := c.Sensor.Validate(); err != nil {
		return err
	}
	if c.UseTracker {
		if err := c.Tracker.Validate(); err != nil {
			return err
		}
	}
	if c.MonitorSubSteps < 0 {
		return fmt.Errorf("sim: negative MonitorSubSteps")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// TrajectoryPoint is one recorded sample of an encounter.
type TrajectoryPoint struct {
	T        float64
	Own      uav.State
	Intruder uav.State
	// MoreIntruders holds the states of intruders beyond the first, in
	// encounter order (nil for classic pairwise encounters).
	MoreIntruders []uav.State
	// OwnAlerting/IntruderAlerting record whether each CAS was advising.
	OwnAlerting      bool
	IntruderAlerting bool
	// OwnSense/IntruderSense are the claimed maneuver senses.
	OwnSense      Sense
	IntruderSense Sense
}

// Result summarizes one simulated encounter.
type Result struct {
	// NMAC reports a detected near mid-air collision (the ownship against
	// any intruder) and its time.
	NMAC     bool
	NMACTime float64
	// MinSeparation is the minimum 3-D ownship-to-intruder separation over
	// the run (the minimum across every intruder), metres, and the time it
	// occurred.
	MinSeparation   float64
	MinSeparationAt float64
	// MinHorizontal and MinVertical are the independent minima the
	// paper's Proximity Measurer records, again across every intruder.
	MinHorizontal float64
	MinVertical   float64
	// AlertCounts[i] counts aircraft i's no-alert -> alert transitions:
	// index 0 is the ownship, 1..K the intruders. The slice is owned by
	// the Runner that produced the result and is overwritten by its next
	// Run; callers retaining results across runs must copy it.
	AlertCounts []int
	// OwnAlertTime is the first time the own-ship alerted (-1 if never).
	OwnAlertTime float64
	// Duration is the simulated time span.
	Duration float64
	// Trajectory is non-nil when RecordTrajectory was set.
	Trajectory []TrajectoryPoint
}

// OwnAlerts returns the ownship's alert count.
func (r Result) OwnAlerts() int {
	if len(r.AlertCounts) == 0 {
		return 0
	}
	return r.AlertCounts[0]
}

// IntruderAlerts returns the total alert count over every intruder (the
// single intruder's count for a pairwise encounter).
func (r Result) IntruderAlerts() int {
	return r.TotalAlerts() - r.OwnAlerts()
}

// TotalAlerts returns the alert count summed over every aircraft.
func (r Result) TotalAlerts() int {
	n := 0
	for _, c := range r.AlertCounts {
		n += c
	}
	return n
}

// Alerted reports whether any aircraft alerted during the run.
func (r Result) Alerted() bool {
	for _, c := range r.AlertCounts {
		if c > 0 {
			return true
		}
	}
	return false
}

// aircraft bundles one simulated aircraft with its CAS and its filtered
// views of the peers it observes. The vehicle and track filters are held by
// value so one aircraft (inside a Runner) can be reset and reused across
// episodes without allocating.
type aircraft struct {
	vehicle uav.UAV
	// tracks filters this aircraft's view of each observed peer: the
	// ownship keeps one filter per intruder (index j-1 for intruder j),
	// every intruder keeps exactly one (the ownship).
	tracks   []tracker.Tracker
	hasTrack bool
	// system is the decision engine consulted each cycle: the equipped
	// System as-is when it implements AvoidanceSystem, the slot's embedded
	// pairwise adapter otherwise.
	system AvoidanceSystem
	// adapter backs Adapt for pairwise systems without allocating per run.
	adapter pairwiseAdapter
	// lastDecision caches the most recent decision for coordination.
	lastDecision Decision
	alerts       int
	firstAlertAt float64
	// channels/delays hold the per-link fault state (one entry per
	// observed peer, indexed like tracks) when the run configuration
	// enables faults: the Gilbert–Elliott burst channel and the
	// fixed-latency delay queue. Grown once, reset in place per episode.
	channels []fault.Channel
	delays   []fault.DelayLine
}

// ensureLinks grows the aircraft's per-link fault state to n peers and
// resets it for a fresh episode: channels back to the good state, delay
// queues emptied and sized for the configured latency. At a steady peer
// count and latency this allocates nothing.
func (a *aircraft) ensureLinks(n, latency int) {
	for len(a.channels) < n {
		a.channels = append(a.channels, fault.Channel{})
		a.delays = append(a.delays, fault.DelayLine{})
	}
	for i := 0; i < n; i++ {
		a.channels[i].Reset()
		a.delays[i].Init(latency)
	}
}

// ensureTracks grows the aircraft's filter set to n peers, wiring new
// filters with cfg. Existing filters are left untouched (Reconfigure
// re-wires them when the configuration changes).
func (a *aircraft) ensureTracks(n int, cfg tracker.Config) error {
	for len(a.tracks) < n {
		a.tracks = append(a.tracks, tracker.Tracker{})
		if err := a.tracks[len(a.tracks)-1].Init(cfg); err != nil {
			return err
		}
	}
	return nil
}

// reset wires the aircraft for a fresh encounter: new initial state, new
// (Reset) system, dropped tracks, cleared alert bookkeeping. The equipped
// system is lifted onto the AvoidanceSystem contract through the slot's
// embedded adapter, so resetting never allocates.
func (a *aircraft) reset(system System, initial uav.State) {
	a.vehicle.Reset(initial)
	if a.hasTrack {
		for i := range a.tracks {
			a.tracks[i].Reset()
		}
	}
	if as, ok := system.(AvoidanceSystem); ok {
		a.system = as
	} else {
		a.adapter.sys = system
		a.system = &a.adapter
	}
	system.Reset()
	a.lastDecision = Decision{}
	a.alerts = 0
	a.firstAlertAt = -1
}

// Runner is a reusable simulation world for one RunConfig: a fleet of
// aircraft (one ownship plus K >= 1 intruders), their track filters, the
// proximity and accident monitors, the clock and per-aircraft deterministic
// RNG streams, all wired once and reset in place by every Run. The fleet
// grows on demand when an encounter brings more intruders than any before
// it; at a steady intruder count a Runner performs no allocation per
// episode (except the optional trajectory recording), which is what lets
// the Monte-Carlo evaluator run millions of episodes allocation-free.
//
// A Runner is not safe for concurrent use and must not be copied; each
// worker owns one.
type Runner struct {
	cfg        RunConfig
	configured bool
	// fleet[0] is the ownship; fleet[1..k] the intruders of the current
	// encounter (the slice may be longer than 1+k from earlier runs).
	fleet []*aircraft
	// k is the intruder count of the encounter in flight.
	k        int
	prox     ProximityMeasurer
	accident AccidentDetector
	clock    Clock

	// Per-aircraft deterministic RNG streams (dynamics and sensor),
	// re-seeded per episode; the stream indices preserve the classic
	// two-aircraft layout (see streamIndexes).
	dyn, sensor []*stats.ReseedableRNG
	// dynR/sensorR cache the *rand.Rand views for the run in flight.
	dynR, sensorR []*rand.Rand
	// flt holds the per-aircraft fault streams, seeded from the episode
	// seed under a dedicated salt (see faultStreamSalt) only when the
	// configuration enables faults — so the zero profile draws nothing
	// and perturbs nothing.
	flt  []*stats.ReseedableRNG
	fltR []*rand.Rand
	// faultsOn caches cfg.Faults.Enabled(); latSec is the configured
	// measurement latency in seconds (Latency cycles x DecisionPeriod).
	faultsOn bool
	latSec   float64

	// Scratch reused across episodes.
	posBefore   []geom.Vec3
	posAfter    []geom.Vec3
	trackBuf    []geom.Track
	pairTrack   [1]geom.Track
	alertCounts []int

	// pairParams/pairSystems back the allocation-free pairwise Run wrapper.
	pairParams  [1]encounter.Params
	pairSystems [2]System
}

// streamIndexes returns the (dynamics, sensor) component stream indices of
// aircraft i. Aircraft 0 and 1 keep the classic two-aircraft layout (own
// dynamics 0, intruder dynamics 1, own sensor 2, intruder sensor 3) so a
// single-intruder encounter replays the exact historical streams;
// additional aircraft draw from fresh stream pairs above that range.
func streamIndexes(i int) (dyn, sensor int) {
	if i < 2 {
		return i, i + 2
	}
	return 2 * i, 2*i + 1
}

// faultStreamSalt separates the fault streams from the dynamics/sensor
// streams. Every non-negative component stream index is (eventually)
// claimed by streamIndexes as the fleet grows, so fault streams salt the
// episode seed itself instead of taking an index: stream i of seed s and
// stream i of seed s^salt never collide for the same episode.
const faultStreamSalt = 0x0FA17B17D0C0FFEE

// NewRunner builds a reusable simulation world for the configuration.
func NewRunner(cfg RunConfig) (*Runner, error) {
	r := &Runner{}
	if err := r.Reconfigure(cfg); err != nil {
		return nil, err
	}
	return r, nil
}

// Reconfigure re-wires the runner for a new configuration in place,
// revalidating it. Reconfiguring to the current configuration is free.
func (r *Runner) Reconfigure(cfg RunConfig) error {
	// The short-circuit only applies once a configuration has been
	// validated and installed: a zero Runner must not treat a zero (and
	// invalid) RunConfig as already configured.
	if r.configured && cfg == r.cfg {
		return nil
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	r.cfg = cfg
	// Re-wire every existing aircraft for the new configuration, then make
	// sure the classic pairwise fleet exists.
	for i, a := range r.fleet {
		if err := r.wireAircraft(a, i); err != nil {
			return err
		}
	}
	if err := r.ensureFleet(2); err != nil {
		return err
	}
	r.prox.Reset()
	r.accident.Reset()
	r.clock = Clock{dt: cfg.Dt}
	r.faultsOn = cfg.Faults.Enabled()
	r.latSec = float64(cfg.Faults.Latency) * cfg.DecisionPeriod
	r.configured = true
	return nil
}

// wireAircraft (re)initializes aircraft i's vehicle and track filters for
// the current configuration.
func (r *Runner) wireAircraft(a *aircraft, i int) error {
	ucfg := r.cfg.IntruderUAV
	if i == 0 {
		ucfg = r.cfg.OwnUAV
	}
	if err := a.vehicle.Init(ucfg, uav.State{}); err != nil {
		return err
	}
	a.hasTrack = r.cfg.UseTracker
	if r.cfg.UseTracker {
		for j := range a.tracks {
			if err := a.tracks[j].Init(r.cfg.Tracker); err != nil {
				return err
			}
		}
	}
	return nil
}

// ensureFleet grows the runner's aircraft pool, RNG streams and scratch
// buffers to host n aircraft (1 ownship + n-1 intruders), wiring new slots
// for the current configuration. Existing slots are untouched, so a steady
// intruder count costs nothing.
func (r *Runner) ensureFleet(n int) error {
	for len(r.fleet) < n {
		a := &aircraft{}
		if err := r.wireAircraft(a, len(r.fleet)); err != nil {
			return err
		}
		r.fleet = append(r.fleet, a)
	}
	// The ownship filters one track per intruder; each intruder filters
	// only the ownship.
	if r.cfg.UseTracker {
		if err := r.fleet[0].ensureTracks(n-1, r.cfg.Tracker); err != nil {
			return err
		}
		for i := 1; i < n; i++ {
			if err := r.fleet[i].ensureTracks(1, r.cfg.Tracker); err != nil {
				return err
			}
		}
	}
	// Per-link fault state exists only when the configuration degrades
	// anything; ensureFleet runs at the top of every episode, so this
	// doubles as the in-place per-episode fault reset.
	if r.cfg.Faults.Enabled() {
		r.fleet[0].ensureLinks(n-1, r.cfg.Faults.Latency)
		for i := 1; i < n; i++ {
			r.fleet[i].ensureLinks(1, r.cfg.Faults.Latency)
		}
	}
	for len(r.dyn) < n {
		r.dyn = append(r.dyn, &stats.ReseedableRNG{})
		r.sensor = append(r.sensor, &stats.ReseedableRNG{})
		r.flt = append(r.flt, &stats.ReseedableRNG{})
	}
	for len(r.dynR) < n {
		r.dynR = append(r.dynR, nil)
		r.sensorR = append(r.sensorR, nil)
		r.fltR = append(r.fltR, nil)
	}
	for len(r.posBefore) < n {
		r.posBefore = append(r.posBefore, geom.Vec3{})
	}
	for len(r.posAfter) < n {
		r.posAfter = append(r.posAfter, geom.Vec3{})
	}
	for cap(r.trackBuf) < n-1 {
		r.trackBuf = append(r.trackBuf[:cap(r.trackBuf)], geom.Track{})
	}
	for cap(r.alertCounts) < n {
		r.alertCounts = append(r.alertCounts[:cap(r.alertCounts)], 0)
	}
	return nil
}

// Config returns the runner's configuration.
func (r *Runner) Config() RunConfig { return r.cfg }

// Run simulates one encounter between two aircraft equipped with the given
// collision avoidance systems (use NoSystem for an unequipped aircraft),
// resetting the whole world in place first. The run is deterministic for a
// given seed and byte-identical to RunEncounter with the same arguments;
// Systems are Reset before use. Run is the pairwise special case of
// RunMulti and shares its engine.
func (r *Runner) Run(p encounter.Params, ownSys, intrSys System, seed uint64) (Result, error) {
	r.pairParams[0] = p
	r.pairSystems[0], r.pairSystems[1] = ownSys, intrSys
	return r.RunMulti(encounter.MultiParams{Intruders: r.pairParams[:]}, r.pairSystems[:], seed)
}

// RunMulti simulates one encounter between the ownship and the encounter's
// K intruders. systems holds one collision avoidance system per aircraft:
// systems[0] equips the ownship, systems[j] intruder j (1 <= j <= K); use
// NoSystem for unequipped aircraft. The ownship resolves all K threats in
// one decision cycle (its AvoidanceSystem step, the nearest threat for an
// adapted pairwise system); each intruder avoids the ownship only. A
// single-intruder call is bit-identical to the classic pairwise Run.
func (r *Runner) RunMulti(m encounter.MultiParams, systems []System, seed uint64) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	k := m.NumIntruders()
	if len(systems) != k+1 {
		return Result{}, fmt.Errorf("sim: %d systems for %d aircraft (1 ownship + %d intruders)",
			len(systems), k+1, k)
	}
	for i, s := range systems {
		if s == nil {
			return Result{}, fmt.Errorf("sim: nil system for aircraft %d", i)
		}
	}
	if err := r.ensureFleet(k + 1); err != nil {
		return Result{}, err
	}
	r.k = k
	cfg := &r.cfg

	r.fleet[0].reset(systems[0], encounter.OwnInitialState(m.Intruders[0]))
	for j := 1; j <= k; j++ {
		r.fleet[j].reset(systems[j], encounter.IntruderInitialState(m.Intruders[j-1]))
	}
	r.prox.Reset()
	r.accident.Reset()
	r.clock.Reset()

	for i := 0; i <= k; i++ {
		di, si := streamIndexes(i)
		r.dynR[i] = r.dyn[i].SeedPCG(streamSeedWords(seed, di))
		r.sensorR[i] = r.sensor[i].SeedPCG(streamSeedWords(seed, si))
	}
	if r.faultsOn {
		for i := 0; i <= k; i++ {
			r.fltR[i] = r.flt[i].SeedPCG(streamSeedWords(seed^faultStreamSalt, i))
		}
	}

	duration := m.MaxTimeToCPA() + cfg.Overtime
	res := Result{OwnAlertTime: -1}
	r.observeAll(0)
	if cfg.RecordTrajectory {
		res.Trajectory = append(res.Trajectory, r.trajectoryPoint(0))
	}

	nextDecision := 0.0
	for r.clock.Now() < duration {
		now := r.clock.Now()
		if now >= nextDecision {
			r.decideOwnship(now)
			for j := 1; j <= k; j++ {
				r.decideIntruder(now, j)
			}
			nextDecision += cfg.DecisionPeriod
		}
		for i := 0; i <= k; i++ {
			r.posBefore[i] = r.fleet[i].vehicle.State().Pos
		}
		for i := 0; i <= k; i++ {
			r.fleet[i].vehicle.Step(cfg.Dt, r.dynR[i])
		}
		r.sampleSeparationFine(now)
		r.clock.Tick()
		if cfg.RecordTrajectory {
			res.Trajectory = append(res.Trajectory, r.trajectoryPoint(r.clock.Now()))
		}
	}

	res.NMAC, res.NMACTime = r.accident.NMAC()
	res.MinSeparation, res.MinSeparationAt = r.prox.Min3D()
	res.MinHorizontal = r.prox.MinHorizontal()
	res.MinVertical = r.prox.MinVertical()
	r.alertCounts = r.alertCounts[:k+1]
	for i := 0; i <= k; i++ {
		r.alertCounts[i] = r.fleet[i].alerts
	}
	res.AlertCounts = r.alertCounts
	res.OwnAlertTime = r.fleet[0].firstAlertAt
	res.Duration = r.clock.Now()
	return res, nil
}

// observe feeds one ownship-intruder position pair to both monitors,
// computing the pair distances once and sharing them (the monitors each
// derived the same distances before; see ProximityMeasurer.Observe for the
// exact decomposition that keeps the shared form bit-identical).
func (r *Runner) observe(now float64, a, b geom.Vec3) {
	d2h := a.HorizontalDistanceSquaredTo(b)
	dv := a.VerticalDistanceTo(b)
	r.prox.ObserveSq(now, d2h, dv, d2h+dv*dv)
	r.accident.ObserveSq(now, d2h, dv)
}

// observeAll feeds the current ownship-to-intruder pairs to the monitors,
// so the recorded minima (and any NMAC) are minima over every intruder.
func (r *Runner) observeAll(now float64) {
	own := r.fleet[0].vehicle.State().Pos
	for j := 1; j <= r.k; j++ {
		r.observe(now, own, r.fleet[j].vehicle.State().Pos)
	}
}

// sampleSeparationFine linearly interpolates every trajectory across a
// step and feeds sub-sampled ownship-to-intruder positions to the monitors
// so that fast crossings are not stepped over.
func (r *Runner) sampleSeparationFine(t0 float64) {
	subSteps := r.cfg.MonitorSubSteps
	if subSteps < 1 {
		subSteps = 1
	}
	// Hoist every post-step endpoint out of the sub-step loop: State()
	// copies the full vehicle state, and this is the innermost loop of
	// every episode (subSteps x K observations per simulation step).
	for i := 0; i <= r.k; i++ {
		r.posAfter[i] = r.fleet[i].vehicle.State().Pos
	}
	for i := 1; i <= subSteps; i++ {
		f := float64(i) / float64(subSteps)
		t := t0 + f*r.cfg.Dt
		ownAt := r.posBefore[0].Lerp(r.posAfter[0], f)
		for j := 1; j <= r.k; j++ {
			r.observe(t, ownAt, r.posBefore[j].Lerp(r.posAfter[j], f))
		}
	}
}

// trajectoryPoint snapshots the current world state for recording.
func (r *Runner) trajectoryPoint(now float64) TrajectoryPoint {
	own, first := r.fleet[0], r.fleet[1]
	tp := TrajectoryPoint{
		T:                now,
		Own:              own.vehicle.State(),
		Intruder:         first.vehicle.State(),
		OwnAlerting:      own.lastDecision.Alerting,
		IntruderAlerting: first.lastDecision.Alerting,
		OwnSense:         own.lastDecision.Sense,
		IntruderSense:    first.lastDecision.Sense,
	}
	for j := 2; j <= r.k; j++ {
		tp.MoreIntruders = append(tp.MoreIntruders, r.fleet[j].vehicle.State())
	}
	return tp
}

// RunEncounter simulates one encounter between two aircraft equipped with
// the given collision avoidance systems (use NoSystem for an unequipped
// aircraft). The run is deterministic for a given seed. Systems are Reset
// before use. Callers running many episodes should hold a Runner and call
// its Run method instead, which reuses the whole simulation world.
func RunEncounter(p encounter.Params, ownSys, intrSys System, cfg RunConfig, seed uint64) (Result, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return Result{}, err
	}
	return r.Run(p, ownSys, intrSys, seed)
}

// RunMultiEncounter simulates one encounter between the ownship and K
// intruders; systems[0] equips the ownship, systems[j] intruder j. The run
// is deterministic for a given seed, and bit-identical to RunEncounter for
// single-intruder encounters. Callers running many episodes should hold a
// Runner and call RunMulti, which reuses the whole simulation world.
func RunMultiEncounter(m encounter.MultiParams, systems []System, cfg RunConfig, seed uint64) (Result, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return Result{}, err
	}
	return r.RunMulti(m, systems, seed)
}

// surveil runs aircraft a's surveillance of peer (tracked by a.tracks[ti]
// and degraded by a.channels/a.delays[ti] when faults are enabled): one
// noisy ADS-B observation, pushed through the fault layer, filtered when
// tracking is enabled. It reports the estimated position/velocity and
// whether a usable track exists this cycle.
//
// Under measurement latency the tracker runs on the delayed timeline:
// delivered reports carry their observation timestamps (now - latency),
// and dropout dead reckoning predicts only up to that delayed horizon —
// the logic genuinely acts on state that is Latency cycles old.
func (r *Runner) surveil(a *aircraft, ti int, peer *aircraft, now float64, sensorRNG, faultRNG *rand.Rand) (pos, vel geom.Vec3, ok bool) {
	rep := r.cfg.Sensor.Observe(peer.vehicle.State(), now, sensorRNG)
	trackNow := now
	if r.faultsOn {
		rep = r.degrade(a, ti, peer, rep, faultRNG)
		trackNow = now - r.latSec
	}
	if a.hasTrack {
		tk := &a.tracks[ti]
		if rep.Valid {
			est := tk.Update(rep.Pos, rep.Vel, rep.Time)
			return est.Pos, est.Vel, est.Initialized
		}
		if est := tk.Predict(trackNow); est.Initialized {
			return est.Pos, est.Vel, true
		}
		return geom.Vec3{}, geom.Vec3{}, false
	}
	if rep.Valid {
		return rep.Pos, rep.Vel, true
	}
	return geom.Vec3{}, geom.Vec3{}, false
}

// degrade applies the configured fault profile to one freshly observed
// report on the link a <- peer, in transmission order: the burst channel
// may lose it, the detection-range limit may blind it, and the delay
// queue holds it for Latency cycles (delivering whatever was observed
// that long ago instead, invalid during warm-up). All randomness draws
// from the dedicated fault stream, never from the sensor stream.
func (r *Runner) degrade(a *aircraft, li int, peer *aircraft, rep uav.ADSBReport, faultRNG *rand.Rand) uav.ADSBReport {
	f := &r.cfg.Faults
	if f.BurstEnabled() && a.channels[li].Step(*f, faultRNG) {
		rep.Valid = false
	}
	if f.DetectionRange > 0 {
		d2 := a.vehicle.State().Pos.DistanceSquaredTo(peer.vehicle.State().Pos)
		if d2 > f.DetectionRange*f.DetectionRange {
			rep.Valid = false
		}
	}
	if f.Latency > 0 {
		out, ok := a.delays[li].Push(rep)
		if !ok {
			out.Valid = false
		}
		rep = out
	}
	return rep
}

// coordinated reports whether maneuver-sense coordination is in force at
// time now: configured on and not inside a scheduled comm-loss window.
func (r *Runner) coordinated(now float64) bool {
	if !r.cfg.Coordination {
		return false
	}
	return !r.faultsOn || !r.cfg.Faults.CommLost(now)
}

// applyDecision records a decision's alert bookkeeping and commands the
// vehicle.
func (a *aircraft) applyDecision(d Decision, now float64) {
	if d.NewAlert {
		a.alerts++
		if a.firstAlertAt < 0 {
			a.firstAlertAt = now
		}
	}
	a.lastDecision = d
	if d.HasCmd {
		a.vehicle.Command(d.Cmd)
	} else {
		a.vehicle.ClearCommand()
	}
}

// decideOwnship runs the ownship's decision cycle: surveil every intruder
// (in encounter order, from the ownship's sensor stream), then hand the
// surviving tracks to the system's AvoidanceSystem step in one call. The
// classic pairwise/nearest-threat dispatch lives in the Adapt adapter, so a single-track cycle is bit-identical to the historical
// pairwise engine.
func (r *Runner) decideOwnship(now float64) {
	a := r.fleet[0]
	sensorRNG := r.sensorR[0]
	tracks := r.trackBuf[:0]
	for j := 1; j <= r.k; j++ {
		if pos, vel, ok := r.surveil(a, j-1, r.fleet[j], now, sensorRNG, r.fltR[0]); ok {
			tracks = append(tracks, geom.Track{Pos: pos, Vel: vel})
		}
	}
	r.trackBuf = tracks[:0]
	if len(tracks) == 0 {
		// No surveillance: keep flying the current command.
		return
	}

	var constraint Constraint
	if r.coordinated(now) {
		for j := 1; j <= r.k; j++ {
			switch r.fleet[j].lastDecision.Sense {
			case SenseUp:
				constraint.BanUp = true
			case SenseDown:
				constraint.BanDown = true
			}
		}
	}

	d := a.system.DecideTracks(now, a.vehicle.State(), tracks, constraint)
	a.applyDecision(d, now)
}

// nearestTrack returns the index of the track closest to pos in 3-D (first
// index on ties, so the choice is deterministic).
func nearestTrack(pos geom.Vec3, tracks []geom.Track) int {
	best, bestD := 0, tracks[0].Pos.DistanceSquaredTo(pos)
	for i := 1; i < len(tracks); i++ {
		if d := tracks[i].Pos.DistanceSquaredTo(pos); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// decideIntruder runs intruder j's decision cycle against the ownship: one
// surveillance observation from the intruder's own sensor stream, a
// single-track AvoidanceSystem step (the adapter routes it through the
// pairwise Decide, bit-identical to the classic engine), coordination
// constrained by the ownship's current claimed sense.
func (r *Runner) decideIntruder(now float64, j int) {
	a := r.fleet[j]
	pos, vel, ok := r.surveil(a, 0, r.fleet[0], now, r.sensorR[j], r.fltR[j])
	if !ok {
		// No surveillance: keep flying the current command.
		return
	}

	var constraint Constraint
	if r.coordinated(now) {
		switch r.fleet[0].lastDecision.Sense {
		case SenseUp:
			constraint.BanUp = true
		case SenseDown:
			constraint.BanDown = true
		}
	}

	r.pairTrack[0] = geom.Track{Pos: pos, Vel: vel}
	d := a.system.DecideTracks(now, a.vehicle.State(), r.pairTrack[:], constraint)
	a.applyDecision(d, now)
}
