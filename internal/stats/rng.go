// Package stats provides the light-weight statistics and deterministic
// random-number plumbing shared by the simulators, the Monte-Carlo harness
// and the genetic algorithm: streaming moment accumulators, confidence
// intervals for rare-event probabilities, and reproducible RNG fan-out so
// that parallel workers stay deterministic under a single seed.
package stats

import "math/rand/v2"

// NewRNG returns a deterministic PCG-backed random source for the given
// 64-bit seed. Two calls with the same seed produce identical streams.
func NewRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(SeedWords(seed)))
}

// SeedWords maps a 64-bit seed onto the two PCG state words NewRNG uses.
// Exposed so reseedable generators can reproduce NewRNG's stream exactly.
func SeedWords(seed uint64) (uint64, uint64) {
	return seed, seed ^ 0x9E3779B97F4A7C15
}

// ReseedableRNG is a rand.Rand whose PCG source can be re-seeded in place,
// so a hot loop can draw a fresh deterministic stream per iteration without
// allocating a new generator each time. rand.Rand holds no state beyond its
// source, so a re-seeded ReseedableRNG produces exactly the stream a freshly
// constructed generator with the same seed words would.
//
// The zero value is ready; seed it before first use. A ReseedableRNG must
// not be copied after first use (the Rand points at the embedded PCG).
type ReseedableRNG struct {
	src rand.PCG
	rnd *rand.Rand
}

// SeedPCG re-seeds the source with raw PCG state words and returns the
// generator.
func (r *ReseedableRNG) SeedPCG(s1, s2 uint64) *rand.Rand {
	r.src.Seed(s1, s2)
	if r.rnd == nil {
		r.rnd = rand.New(&r.src)
	}
	return r.rnd
}

// Seed re-seeds to NewRNG(seed)'s stream and returns the generator.
func (r *ReseedableRNG) Seed(seed uint64) *rand.Rand {
	s1, s2 := SeedWords(seed)
	return r.SeedPCG(s1, s2)
}

// SeedChild re-seeds to NewChildRNG(parent, index)'s stream and returns the
// generator.
func (r *ReseedableRNG) SeedChild(parent uint64, index int) *rand.Rand {
	return r.Seed(DeriveSeed(parent, index))
}

// splitmix64 advances a splitmix64 state and returns the next output. It is
// used to derive well-distributed child seeds from a parent seed.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// DeriveSeed deterministically derives the index-th child seed from a parent
// seed. Children with different indices are statistically independent, which
// lets parallel workers each own a private RNG while the whole run remains
// reproducible.
func DeriveSeed(parent uint64, index int) uint64 {
	state := parent ^ 0xD1B54A32D192ED03
	// Mix the index in twice through splitmix to decorrelate adjacent
	// indices.
	state += uint64(index) * 0x2545F4914F6CDD1D
	s := splitmix64(&state)
	state ^= s
	return splitmix64(&state)
}

// NewChildRNG returns a deterministic RNG for the index-th child of a parent
// seed. Shorthand for NewRNG(DeriveSeed(parent, index)).
func NewChildRNG(parent uint64, index int) *rand.Rand {
	return NewRNG(DeriveSeed(parent, index))
}
