// Package core holds the paper's contribution shared by every search path:
// the fitness of an encounter and the analysis of what a search found
// (section V-VII).
//
// Encounters are encoded as 9-gene genomes (internal/encounter); the GA
// (internal/search) scores each genome by running a batch of stochastic
// closed-loop simulations, and the paper's fitness
//
//	fitness = (1/K) * sum_k 10000 / (1 + d_k)
//
// (d_k the minimum separation of run k; a mid-air collision gives the
// maximum gain 10000) steers the search toward encounters the system cannot
// resolve. The helpers here rank, classify, cluster and persist the
// evaluations such a search logs.
package core

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
		return fmt.Errorf("core: SimsPerEncounter %d < 1", c.SimsPerEncounter)
	}
	if c.CollisionGain <= 0 {
		return fmt.Errorf("core: CollisionGain %v <= 0", c.CollisionGain)
	}
	return c.Run.Validate()
}
