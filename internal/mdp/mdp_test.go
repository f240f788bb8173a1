package mdp

import (
	"math"
	"testing"

	"acasxval/internal/stats"
)

// twoStateChain builds the classic two-state problem with a known
// closed-form solution:
//
//	state 0, action 0 (stay): reward 1, stays in 0.
//	state 0, action 1 (move): reward 0, goes to 1.
//	state 1, any action: reward 2, stays in 1.
//
// With discount g: staying forever in 1 is worth 2/(1-g); from state 0 the
// optimal plan is to move: 0 + g*2/(1-g), which beats staying (1/(1-g))
// whenever 2g > 1.
func twoStateChain() *Tabular {
	t := NewTabular(2, 2)
	t.SetReward(0, 0, 1)
	t.AddTransition(0, 0, 0, 1)
	t.SetReward(0, 1, 0)
	t.AddTransition(0, 1, 1, 1)
	for a := 0; a < 2; a++ {
		t.SetReward(1, a, 2)
		t.AddTransition(1, a, 1, 1)
	}
	return t
}

func TestValidateProblem(t *testing.T) {
	good := twoStateChain()
	if err := ValidateProblem(good, 1e-12); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}

	bad := NewTabular(2, 1)
	bad.AddTransition(0, 0, 1, 0.5) // probabilities sum to 0.5
	if err := ValidateProblem(bad, 1e-9); err == nil {
		t.Error("expected probability-sum error")
	}

	neg := NewTabular(2, 1)
	neg.AddTransition(0, 0, 1, -0.5)
	neg.AddTransition(0, 0, 0, 1.5)
	if err := ValidateProblem(neg, 1e-9); err == nil {
		t.Error("expected negative-probability error")
	}

	if err := ValidateProblem(NewTabular(0, 1), 1e-9); err == nil {
		t.Error("expected empty-problem error")
	}
}

func TestValidateProblemBadSuccessor(t *testing.T) {
	bad := NewTabular(2, 1)
	bad.AddTransition(0, 0, 7, 1)
	if err := ValidateProblem(bad, 1e-9); err == nil {
		t.Error("expected invalid-successor error")
	}
}

func TestValueIterationClosedForm(t *testing.T) {
	p := twoStateChain()
	const g = 0.9
	sol, err := ValueIteration(p, Options{Discount: g, Tolerance: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Fatal("did not converge")
	}
	wantV1 := 2 / (1 - g)
	wantV0 := g * wantV1
	if math.Abs(sol.Values[1]-wantV1) > 1e-6 {
		t.Errorf("V(1) = %v, want %v", sol.Values[1], wantV1)
	}
	if math.Abs(sol.Values[0]-wantV0) > 1e-6 {
		t.Errorf("V(0) = %v, want %v", sol.Values[0], wantV0)
	}
	if sol.Policy.Action(0) != 1 {
		t.Errorf("policy(0) = %d, want move (1)", sol.Policy.Action(0))
	}
}

func TestValueIterationLowDiscountPrefersStay(t *testing.T) {
	p := twoStateChain()
	// With g = 0.4 staying in 0 (1/(1-g) = 1.667) beats moving
	// (g*2/(1-g) = 1.333).
	sol, err := ValueIteration(p, Options{Discount: 0.4, Tolerance: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Policy.Action(0) != 0 {
		t.Errorf("policy(0) = %d, want stay (0)", sol.Policy.Action(0))
	}
}

func TestSolversAgree(t *testing.T) {
	p := randomMDP(40, 4, 99)
	opts := Options{Discount: 0.95, Tolerance: 1e-10}
	vi, err := ValueIteration(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := gaussSeidelValueIteration(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := policyIteration(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < p.NumStates(); s++ {
		if math.Abs(vi.Values[s]-gs.Values[s]) > 1e-5 {
			t.Errorf("state %d: VI %v vs GS %v", s, vi.Values[s], gs.Values[s])
		}
		if math.Abs(vi.Values[s]-pi.Values[s]) > 1e-4 {
			t.Errorf("state %d: VI %v vs PI %v", s, vi.Values[s], pi.Values[s])
		}
	}
	if gs.Iterations > vi.Iterations {
		t.Logf("note: Gauss-Seidel took %d sweeps vs Jacobi %d", gs.Iterations, vi.Iterations)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	p := randomMDP(200, 3, 7)
	serial, err := ValueIteration(p, Options{Discount: 0.9, Tolerance: 1e-9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ValueIteration(p, Options{Discount: 0.9, Tolerance: 1e-9, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Iterations != parallel.Iterations {
		t.Errorf("iteration counts differ: %d vs %d", serial.Iterations, parallel.Iterations)
	}
	for s := range serial.Values {
		if serial.Values[s] != parallel.Values[s] {
			t.Fatalf("state %d: serial %v != parallel %v (Jacobi sweeps must be bit-identical)",
				s, serial.Values[s], parallel.Values[s])
		}
	}
}

func TestBellmanResidualCertifiesOptimality(t *testing.T) {
	p := randomMDP(60, 3, 3)
	sol, err := ValueIteration(p, Options{Discount: 0.9, Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if r := BellmanResidual(p, sol.Values, 0.9); r > 1e-9 {
		t.Errorf("residual of converged solution = %v", r)
	}
	// A perturbed value function must have a larger residual.
	perturbed := append([]float64(nil), sol.Values...)
	perturbed[0] += 1
	if r := BellmanResidual(p, perturbed, 0.9); r < 0.5 {
		t.Errorf("residual of perturbed values = %v, want >= 0.5", r)
	}
}

func TestPolicyValues(t *testing.T) {
	p := twoStateChain()
	const g = 0.9
	// Policy that stays in state 0 forever: V(0) = 1/(1-g).
	vals, err := policyValues(p, Policy{0, 0}, Options{Discount: g, Tolerance: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 / (1 - g); math.Abs(vals[0]-want) > 1e-5 {
		t.Errorf("V_pi(0) = %v, want %v", vals[0], want)
	}
	if _, err := policyValues(p, Policy{0}, Options{}); err == nil {
		t.Error("expected policy-length error")
	}
}

func TestOptionsValidation(t *testing.T) {
	p := twoStateChain()
	if _, err := ValueIteration(p, Options{Discount: -1}); err == nil {
		t.Error("expected discount error")
	}
	if _, err := ValueIteration(p, Options{Discount: 1.5}); err == nil {
		t.Error("expected discount error")
	}
	if _, err := gaussSeidelValueIteration(p, Options{Discount: 2}); err == nil {
		t.Error("expected discount error")
	}
	if _, err := policyIteration(p, Options{Discount: 2}); err == nil {
		t.Error("expected discount error")
	}
	if _, err := ValueIteration(NewTabular(0, 0), Options{}); err == nil {
		t.Error("expected empty problem error")
	}
}

func TestTerminalStates(t *testing.T) {
	// A 3-step corridor ending in a terminal reward: 0 -> 1 -> 2 (terminal).
	p := NewTabular(3, 1)
	p.AddTransition(0, 0, 1, 1)
	p.AddTransition(1, 0, 2, 1)
	p.SetReward(1, 0, 5)
	// State 2 has no transitions: terminal. Undiscounted VI must converge
	// because all paths terminate.
	sol, err := ValueIteration(p, Options{Discount: 1, Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Fatal("undiscounted episodic problem did not converge")
	}
	if sol.Values[0] != 5 || sol.Values[1] != 5 || sol.Values[2] != 0 {
		t.Errorf("values = %v, want [5 5 0]", sol.Values)
	}
}

func TestTabularPanicsOnBadIndices(t *testing.T) {
	p := NewTabular(2, 2)
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("bad state", func() { p.SetReward(5, 0, 1) })
	assertPanics("bad action", func() { p.SetReward(0, 5, 1) })
	assertPanics("negative state", func() { p.AddTransition(-1, 0, 0, 1) })
}

// randomMDP builds a dense random MDP with bounded rewards for solver
// cross-checks.
func randomMDP(states, actions int, seed uint64) *Tabular {
	rng := stats.NewRNG(seed)
	p := NewTabular(states, actions)
	for s := 0; s < states; s++ {
		for a := 0; a < actions; a++ {
			p.SetReward(s, a, rng.Float64()*2-1)
			// Three random successors with normalized probabilities.
			probs := []float64{rng.Float64() + 0.01, rng.Float64() + 0.01, rng.Float64() + 0.01}
			total := probs[0] + probs[1] + probs[2]
			for i := range probs {
				p.AddTransition(s, a, rng.IntN(states), probs[i]/total)
			}
		}
	}
	return p
}

func BenchmarkValueIterationSerial(b *testing.B) {
	p := randomMDP(500, 5, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ValueIteration(p, Options{Discount: 0.95, Tolerance: 1e-6}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValueIterationParallel(b *testing.B) {
	p := randomMDP(500, 5, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ValueIteration(p, Options{Discount: 0.95, Tolerance: 1e-6, Workers: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
