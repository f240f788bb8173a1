package mdp

import (
	"fmt"
	"math"
)

// The reference solvers below are independent of ValueIteration's Jacobi
// sweeps; TestSolversAgree checks that all three reach the same values.

// gaussSeidelValueIteration performs in-place (asynchronous) value
// iteration: updated values are used immediately within the same sweep.
// It typically converges in fewer sweeps than Jacobi iteration but is
// inherently serial.
func gaussSeidelValueIteration(p Problem, opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := p.NumStates()
	if n == 0 || p.NumActions() == 0 {
		return nil, ErrEmptyProblem
	}
	values := make([]float64, n)
	sol := &Solution{}
	for iter := 0; iter < opts.MaxIterations; iter++ {
		residual := 0.0
		for s := 0; s < n; s++ {
			_, v := bestAction(p, values, s, opts.Discount)
			if d := math.Abs(v - values[s]); d > residual {
				residual = d
			}
			values[s] = v
		}
		sol.Iterations = iter + 1
		sol.Residual = residual
		if residual < opts.Tolerance {
			sol.Converged = true
			break
		}
	}
	sol.Values = values
	sol.Policy = GreedyPolicy(p, values, opts.Discount)
	return sol, nil
}

// policyIteration solves the MDP by Howard's policy iteration: repeated
// policy evaluation followed by greedy improvement until the policy is
// stable. For each evaluation it reuses the iterative evaluator with the
// solver tolerance.
func policyIteration(p Problem, opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := p.NumStates()
	if n == 0 || p.NumActions() == 0 {
		return nil, ErrEmptyProblem
	}
	pol := make(Policy, n) // start from the all-zeros policy
	sol := &Solution{}
	var values []float64
	for iter := 0; iter < opts.MaxIterations; iter++ {
		var err error
		values, err = policyValues(p, pol, opts)
		if err != nil {
			return nil, err
		}
		stable := true
		residual := 0.0
		for s := 0; s < n; s++ {
			a, q := bestAction(p, values, s, opts.Discount)
			if d := math.Abs(q - values[s]); d > residual {
				residual = d
			}
			// Only switch on a strict improvement beyond tolerance to
			// guarantee termination despite inexact evaluation.
			if a != pol[s] && q > qValue(p, values, s, pol[s], opts.Discount)+opts.Tolerance {
				pol[s] = a
				stable = false
			}
		}
		sol.Iterations = iter + 1
		sol.Residual = residual
		if stable {
			sol.Converged = true
			break
		}
	}
	sol.Values = values
	sol.Policy = pol
	return sol, nil
}

// policyValues evaluates a fixed policy by iterative policy evaluation,
// returning V^pi.
func policyValues(p Problem, pol Policy, opts Options) ([]float64, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := p.NumStates()
	if n == 0 || p.NumActions() == 0 {
		return nil, ErrEmptyProblem
	}
	if len(pol) != n {
		return nil, fmt.Errorf("mdp: policy has %d entries for %d states", len(pol), n)
	}
	values := make([]float64, n)
	next := make([]float64, n)
	for iter := 0; iter < opts.MaxIterations; iter++ {
		residual := 0.0
		for s := 0; s < n; s++ {
			v := qValue(p, values, s, pol[s], opts.Discount)
			if d := math.Abs(v - values[s]); d > residual {
				residual = d
			}
			next[s] = v
		}
		values, next = next, values
		if residual < opts.Tolerance {
			return values, nil
		}
	}
	return values, nil
}
