// Package mdp provides a generic finite Markov Decision Process framework
// and the dynamic-programming solver (value iteration) that the model-based
// optimization development process uses to turn an encounter model plus a
// preference structure into collision avoidance logic. The independent
// reference solvers that value iteration is checked against (Gauss-Seidel
// value iteration, policy iteration) live in the package's tests.
//
// The paper (section II) describes the pipeline: an MDP model — state
// transitions capturing the stochastic evolution of an encounter plus a
// reward/punishment mechanism encoding preferences — is handed to a dynamic
// programming optimizer which returns the policy (logic table) that
// maximizes expected reward with respect to the model.
package mdp

import (
	"errors"
	"fmt"
	"math"
)

// Transition is one outcome of taking an action: the successor state and its
// probability.
type Transition struct {
	State int
	Prob  float64
}

// Problem is a finite MDP. States and actions are dense integer indices.
//
// Implementations must be safe for concurrent read access: the parallel
// solver calls Transitions and Reward from multiple goroutines.
type Problem interface {
	// NumStates returns the number of states, indexed 0..NumStates()-1.
	NumStates() int
	// NumActions returns the number of actions, indexed 0..NumActions()-1.
	NumActions() int
	// Transitions returns the successor distribution of taking action a in
	// state s. An empty slice marks (s, a) as terminal: no future reward is
	// accrued beyond Reward(s, a). Probabilities should sum to 1 (use
	// ValidateProblem to check).
	Transitions(s, a int) []Transition
	// Reward returns the immediate expected reward of taking action a in
	// state s. Costs are negative rewards.
	Reward(s, a int) float64
}

// Policy maps each state to the action the logic table prescribes.
type Policy []int

// Action returns the action for state s.
func (p Policy) Action(s int) int { return p[s] }

// Solution is the output of a solver: the optimal value function, the greedy
// policy, and convergence diagnostics.
type Solution struct {
	// Values is the optimal state-value function V*.
	Values []float64
	// Policy is greedy with respect to Values.
	Policy Policy
	// Iterations is the number of sweeps performed.
	Iterations int
	// Residual is the final Bellman residual (sup-norm change of the last
	// sweep).
	Residual float64
	// Converged reports whether Residual fell below the solver tolerance
	// before MaxIterations.
	Converged bool
}

// Options configures the solvers. The zero value is usable: discount 1 is
// replaced by the default below.
type Options struct {
	// Discount is the per-step discount factor gamma in (0, 1]. Defaults to
	// 0.99. A discount of exactly 1 is permitted only for problems whose
	// every trajectory reaches a terminal state (e.g. finite-horizon
	// models); value iteration may not converge otherwise.
	Discount float64
	// Tolerance is the Bellman residual at which iteration stops.
	// Defaults to 1e-6.
	Tolerance float64
	// MaxIterations bounds the number of sweeps. Defaults to 10000.
	MaxIterations int
	// Workers is the number of goroutines used by parallel sweeps.
	// Defaults to 1 (serial). Values below 1 mean serial.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Discount == 0 {
		o.Discount = 0.99
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-6
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 10000
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

func (o Options) validate() error {
	if o.Discount <= 0 || o.Discount > 1 {
		return fmt.Errorf("mdp: discount %v outside (0, 1]", o.Discount)
	}
	if o.Tolerance < 0 {
		return fmt.Errorf("mdp: negative tolerance %v", o.Tolerance)
	}
	return nil
}

// ErrEmptyProblem is returned for problems with no states or no actions.
var ErrEmptyProblem = errors.New("mdp: problem has no states or no actions")

// ValidateProblem checks structural sanity: per-action transition
// probabilities sum to 1 (within tol) and reference valid states. Terminal
// (empty) transition lists are allowed. Intended for tests and model
// debugging; it is O(states x actions x transitions).
func ValidateProblem(p Problem, tol float64) error {
	n, m := p.NumStates(), p.NumActions()
	if n == 0 || m == 0 {
		return ErrEmptyProblem
	}
	for s := 0; s < n; s++ {
		for a := 0; a < m; a++ {
			ts := p.Transitions(s, a)
			if len(ts) == 0 {
				continue
			}
			sum := 0.0
			for _, tr := range ts {
				if tr.State < 0 || tr.State >= n {
					return fmt.Errorf("mdp: state %d action %d references invalid successor %d", s, a, tr.State)
				}
				if tr.Prob < 0 {
					return fmt.Errorf("mdp: state %d action %d has negative probability %v", s, a, tr.Prob)
				}
				sum += tr.Prob
			}
			if math.Abs(sum-1) > tol {
				return fmt.Errorf("mdp: state %d action %d probabilities sum to %v", s, a, sum)
			}
		}
	}
	return nil
}

// qValue computes Q(s, a) = R(s, a) + gamma * sum_s' P(s'|s,a) V(s').
func qValue(p Problem, values []float64, s, a int, discount float64) float64 {
	q := p.Reward(s, a)
	for _, tr := range p.Transitions(s, a) {
		q += discount * tr.Prob * values[tr.State]
	}
	return q
}

// bestAction returns argmax_a Q(s, a) and the maximum.
func bestAction(p Problem, values []float64, s int, discount float64) (int, float64) {
	best := 0
	bestQ := math.Inf(-1)
	for a := 0; a < p.NumActions(); a++ {
		if q := qValue(p, values, s, a, discount); q > bestQ {
			bestQ = q
			best = a
		}
	}
	return best, bestQ
}

// GreedyPolicy extracts the policy that is greedy with respect to values.
func GreedyPolicy(p Problem, values []float64, discount float64) Policy {
	pol := make(Policy, p.NumStates())
	for s := range pol {
		pol[s], _ = bestAction(p, values, s, discount)
	}
	return pol
}
