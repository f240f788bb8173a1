package mdp

import (
	"math"
	"sync"
)

// ValueIteration solves the MDP by synchronous (Jacobi) value iteration:
// every sweep computes V_{k+1}(s) = max_a Q(s, a) from V_k. With
// Options.Workers > 1 sweeps are parallelized across states; the result is
// bit-for-bit identical to the serial solve because each sweep reads only
// the previous iterate.
func ValueIteration(p Problem, opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := p.NumStates()
	if n == 0 || p.NumActions() == 0 {
		return nil, ErrEmptyProblem
	}
	values := make([]float64, n)
	next := make([]float64, n)

	sol := &Solution{}
	for iter := 0; iter < opts.MaxIterations; iter++ {
		var residual float64
		if opts.Workers > 1 {
			residual = sweepParallel(p, values, next, opts)
		} else {
			residual = sweepSerial(p, values, next, opts, 0, n)
		}
		values, next = next, values
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

// sweepSerial performs one Jacobi sweep over states [lo, hi) and returns the
// sup-norm residual of that range.
func sweepSerial(p Problem, values, next []float64, opts Options, lo, hi int) float64 {
	residual := 0.0
	for s := lo; s < hi; s++ {
		_, v := bestAction(p, values, s, opts.Discount)
		if d := math.Abs(v - values[s]); d > residual {
			residual = d
		}
		next[s] = v
	}
	return residual
}

func sweepParallel(p Problem, values, next []float64, opts Options) float64 {
	n := len(values)
	workers := opts.Workers
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	residuals := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			residuals[w] = sweepSerial(p, values, next, opts, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	residual := 0.0
	for _, r := range residuals {
		if r > residual {
			residual = r
		}
	}
	return residual
}

// BellmanResidual computes the sup-norm Bellman residual of values:
// max_s |max_a Q(s, a) - V(s)|. A residual of 0 certifies optimality; the
// paper leans on this property ("it can be proved that the generated policy
// is optimal with respect to the model").
func BellmanResidual(p Problem, values []float64, discount float64) float64 {
	residual := 0.0
	for s := 0; s < p.NumStates(); s++ {
		_, q := bestAction(p, values, s, discount)
		if d := math.Abs(q - values[s]); d > residual {
			residual = d
		}
	}
	return residual
}
