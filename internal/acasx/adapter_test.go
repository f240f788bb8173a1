package acasx

import (
	"acasxval/internal/interp"
	"acasxval/internal/mdp"
)

// stateIndex flattens (continuous vertex c, advisory ra) into an index of
// one value-table slice, in the layout the stateSize field describes.
func (m *model) stateIndex(c int, ra Advisory) int {
	return int(ra)*m.contSize + c
}

// tauExpandedProblem builds the offline model as an explicit tabular MDP
// with tau folded into the state: state (k, c, ra) transitions to states at
// k-1, and tau = 0 states are terminal with the collision cost as their
// only reward. Solving this problem with the generic mdp solver must
// reproduce the specialized backward-induction table builder exactly;
// TestBuilderMatchesGenericSolver uses it as a differential oracle. It is
// exponentially more memory-hungry than the specialized builder, so only
// coarse configurations are practical.
func tauExpandedProblem(cfg Config) (*mdp.Tabular, *model, error) {
	m, err := newModel(cfg)
	if err != nil {
		return nil, nil, err
	}
	slices := cfg.Grid.Horizon + 1
	numStates := slices * m.stateSize
	p := mdp.NewTabular(numStates, NumAdvisories)

	// Flat layout: k*stateSize + stateIndex(c, ra).
	terminal := m.terminalValues()
	var ws [16]interp.VertexWeight
	for c := 0; c < m.contSize; c++ {
		pt := m.grid.Point(c)
		h, dh0, dh1 := pt[0], pt[1], pt[2]
		for ra := 0; ra < NumAdvisories; ra++ {
			s0 := m.stateIndex(c, Advisory(ra))
			// tau = 0: terminal; reward is the terminal value for any
			// action.
			for a := 0; a < NumAdvisories; a++ {
				p.SetReward(s0, a, terminal[s0])
			}
			for k := 1; k < slices; k++ {
				s := k*m.stateSize + s0
				for a := 0; a < NumAdvisories; a++ {
					p.SetReward(s, a, m.eventCost(Advisory(ra), Advisory(a)))
					// Successor distribution: 3x3 sigma outcomes projected
					// onto the grid at slice k-1 with advisory state a.
					acc := make(map[int]float64, 16)
					for i := 0; i < 3; i++ {
						for j := 0; j < 3; j++ {
							hn, dh0n, dh1n := m.successor(h, dh0, dh1, Advisory(a), m.sigmaNodes[i], m.sigmaNodes[j])
							w := m.sigmaWeights[i] * m.sigmaWeights[j]
							pt2 := [3]float64{hn, dh0n, dh1n}
							wlist, _ := m.grid.WeightsAppend(ws[:0], pt2[:])
							for _, vw := range wlist {
								next := (k-1)*m.stateSize + m.stateIndex(vw.Flat, Advisory(a))
								acc[next] += w * vw.Weight
							}
						}
					}
					ts := make([]mdp.Transition, 0, len(acc))
					for next, prob := range acc {
						ts = append(ts, mdp.Transition{State: next, Prob: prob})
					}
					p.SetTransitions(s, a, ts)
				}
			}
		}
	}
	return p, m, nil
}
