package sim

// Source is the simulator's random source: a SplitMix64 generator whose
// entire state is one word. Beyond statistical quality (SplitMix64
// passes BigCrush and is the stream generator recommended for seeding
// xoshiro-family PRNGs), seeding is O(1): the stdlib rngSource
// initializes a 607-word lagged-Fibonacci table per Seed call, which
// showed up as ~3% of a cross-scenario sweep when every run reseeds;
// SplitMix64 seeding is a single store.
//
// Source implements math/rand.Source64; Sim wraps it in a *rand.Rand, so
// all existing call sites (Float64, Int63n, ...) keep working.
type Source struct {
	state uint64
}

// Seed64 resets the source to the canonical stream for seed.
func (s *Source) Seed64(seed int64) { s.state = uint64(seed) }

// Seed implements math/rand.Source.
func (s *Source) Seed(seed int64) { s.Seed64(seed) }

// Uint64 implements math/rand.Source64 (SplitMix64, Steele et al. 2014).
//
//repolint:hotpath
func (s *Source) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Int63 implements math/rand.Source.
//
//repolint:hotpath
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }
