package mdp

import "fmt"

// Tabular is an explicit in-memory MDP, convenient for model construction
// and tests. Build one with NewTabular, then fill transitions and rewards.
type Tabular struct {
	numStates   int
	numActions  int
	transitions [][]Transition // indexed by s*numActions + a
	rewards     []float64      // indexed by s*numActions + a
}

var _ Problem = (*Tabular)(nil)

// NewTabular creates an empty tabular MDP with the given numbers of states
// and actions. All (s, a) pairs start terminal with zero reward.
func NewTabular(numStates, numActions int) *Tabular {
	return &Tabular{
		numStates:   numStates,
		numActions:  numActions,
		transitions: make([][]Transition, numStates*numActions),
		rewards:     make([]float64, numStates*numActions),
	}
}

func (t *Tabular) idx(s, a int) int {
	if s < 0 || s >= t.numStates {
		panic(fmt.Sprintf("mdp: state %d out of range [0,%d)", s, t.numStates))
	}
	if a < 0 || a >= t.numActions {
		panic(fmt.Sprintf("mdp: action %d out of range [0,%d)", a, t.numActions))
	}
	return s*t.numActions + a
}

// AddTransition appends one successor outcome to (s, a).
func (t *Tabular) AddTransition(s, a, next int, prob float64) {
	i := t.idx(s, a)
	t.transitions[i] = append(t.transitions[i], Transition{State: next, Prob: prob})
}

// SetTransitions replaces the successor distribution of (s, a).
func (t *Tabular) SetTransitions(s, a int, ts []Transition) {
	t.transitions[t.idx(s, a)] = append([]Transition(nil), ts...)
}

// SetReward sets the immediate reward of (s, a).
func (t *Tabular) SetReward(s, a int, r float64) {
	t.rewards[t.idx(s, a)] = r
}

// NumStates implements Problem.
func (t *Tabular) NumStates() int { return t.numStates }

// NumActions implements Problem.
func (t *Tabular) NumActions() int { return t.numActions }

// Transitions implements Problem.
func (t *Tabular) Transitions(s, a int) []Transition { return t.transitions[t.idx(s, a)] }

// Reward implements Problem.
func (t *Tabular) Reward(s, a int) float64 { return t.rewards[t.idx(s, a)] }
