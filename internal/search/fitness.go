package search

import (
	"fmt"

	"acasxval/internal/sim"
)

// FitnessConfig parameterizes the paper's fitness function.
type FitnessConfig struct {
	// SimsPerEncounter is K, the number of stochastic simulations averaged
	// per encounter (paper: 100).
	SimsPerEncounter int
	// CollisionGain is the numerator constant (paper: 10000, matching the
	// MDP's collision cost).
	CollisionGain float64
	// Run configures each simulation.
	Run sim.RunConfig
}

// DefaultFitnessConfig returns the paper's settings.
func DefaultFitnessConfig() FitnessConfig {
	return FitnessConfig{
		SimsPerEncounter: 100,
		CollisionGain:    10000,
		Run:              sim.DefaultRunConfig(),
	}
}

// Validate checks the configuration.
func (c FitnessConfig) Validate() error {
	if c.SimsPerEncounter < 1 {
		return fmt.Errorf("search: SimsPerEncounter %d < 1", c.SimsPerEncounter)
	}
	if c.CollisionGain <= 0 {
		return fmt.Errorf("search: CollisionGain %v <= 0", c.CollisionGain)
	}
	return c.Run.Validate()
}
