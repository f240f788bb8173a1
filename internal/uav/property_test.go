package uav

import (
	"math"
	"math/rand/v2"
	"testing"

	"acasxval/internal/geom"
)

// randomCommand draws a vertical and/or heading command, with targets
// beyond the rate limit as often as inside it.
func randomCommand(rng *rand.Rand, cfg Config) Command {
	return Command{
		HasVS:         rng.IntN(4) != 0,
		TargetVS:      (rng.Float64()*2 - 1) * 1.5 * cfg.MaxVerticalRate,
		Strengthen:    rng.IntN(2) == 0,
		HasHeading:    rng.IntN(3) == 0,
		TargetHeading: rng.Float64() * 2 * math.Pi,
	}
}

// randomFlight builds a noise-free aircraft with a randomized performance
// envelope, flight plan and step size.
func randomFlight(t *testing.T, rng *rand.Rand) (*UAV, float64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.VerticalNoise, cfg.SpeedNoise, cfg.HeadingNoise = 0, 0, 0
	cfg.VerticalAccel *= 0.5 + rng.Float64()
	cfg.StrengthenAccel = cfg.VerticalAccel * (1 + rng.Float64())
	cfg.ResponseDelay = 3 * rng.Float64()
	initial := State{
		Pos: geom.Vec3{Z: 1000},
		Vel: geom.Velocity{
			Gs:  20 + 40*rng.Float64(),
			Psi: rng.Float64() * 2 * math.Pi,
			Vs:  (rng.Float64()*2 - 1) * cfg.MaxVerticalRate,
		},
	}
	u, err := New(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	dt := []float64{0.05, 0.1, 0.25, 1}[rng.IntN(4)]
	return u, dt
}

// TestVerticalRateBoundsProperty: with noise off, every step changes the
// vertical speed by at most the active acceleration limit times dt (the
// strengthened limit when a maneuvering aircraft flies a strengthened
// command), and |vs| never exceeds MaxVerticalRate, whatever sequence of
// commands, re-commands and clears the aircraft receives.
func TestVerticalRateBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 17))
	for trial := 0; trial < 200; trial++ {
		u, dt := randomFlight(t, rng)
		cfg := u.cfg
		for step := 0; step < 400; step++ {
			switch rng.IntN(20) {
			case 0:
				u.Command(randomCommand(rng, cfg))
			case 1:
				u.ClearCommand()
			}
			before := u.State().Vel.Vs
			// The limit that applies is decided after the step's delay
			// countdown, so read the command state from a copy stepped
			// the same way.
			probe := *u
			probe.Step(dt, nil)
			accel := cfg.VerticalAccel
			if cmd := probe.cmd; probe.hasCmd && probe.Maneuvering() && cmd.HasVS && cmd.Strengthen {
				accel = cfg.StrengthenAccel
			}
			u.Step(dt, nil)
			vs := u.State().Vel.Vs
			if d := math.Abs(vs - before); d > accel*dt*(1+1e-12) {
				t.Fatalf("trial %d step %d: |dvs| = %v exceeds accel*dt = %v*%v", trial, step, d, accel, dt)
			}
			if math.Abs(vs) > cfg.MaxVerticalRate {
				t.Fatalf("trial %d step %d: |vs| = %v exceeds MaxVerticalRate %v", trial, step, math.Abs(vs), cfg.MaxVerticalRate)
			}
		}
	}
}

// TestResponseDelayProperty: a new command given to an aircraft that is
// not maneuvering leaves it on its flight plan for ResponseDelay — step
// for step it flies bit-identically to a twin whose command was cleared —
// and the maneuver begins in the step during which the delay runs out.
func TestResponseDelayProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 3))
	checked := 0
	for trial := 0; trial < 300; trial++ {
		u, dt := randomFlight(t, rng)
		cfg := u.cfg
		// A random history: commands and clears, some of them still in
		// their own response delay when the new command arrives.
		for step := rng.IntN(60); step > 0; step-- {
			switch rng.IntN(8) {
			case 0:
				u.Command(randomCommand(rng, cfg))
			case 1:
				u.ClearCommand()
			}
			u.Step(dt, nil)
		}
		if u.Maneuvering() {
			continue
		}
		cmd := randomCommand(rng, cfg)
		if u.hasCmd && u.cmd == cmd {
			continue
		}
		twin := *u
		twin.ClearCommand()
		u.Command(cmd)
		// onPlan counts the steps flown on the flight plan after the
		// command; the loop ends at the step that flies the command.
		onPlan := 0
		for {
			u.Step(dt, nil)
			twin.Step(dt, nil)
			if u.Maneuvering() {
				break
			}
			if u.State() != twin.State() {
				t.Fatalf("trial %d: off the flight plan %v s after the command, inside the %v s response delay",
					trial, float64(onPlan+1)*dt, cfg.ResponseDelay)
			}
			onPlan++
			if float64(onPlan)*dt > cfg.ResponseDelay+1e-9 {
				t.Fatalf("trial %d: still not maneuvering %v s after a %v s response delay",
					trial, float64(onPlan)*dt, cfg.ResponseDelay)
			}
		}
		if end := float64(onPlan+1) * dt; end < cfg.ResponseDelay-1e-9 {
			t.Fatalf("trial %d: maneuvering %v s after the command, before the %v s response delay",
				trial, end, cfg.ResponseDelay)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d trials issued a new command to a non-maneuvering aircraft", checked)
	}
}
