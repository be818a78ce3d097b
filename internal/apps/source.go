package apps

import "math/rand"

// math/rand's generator is an additive lagged-Fibonacci sequence,
// x[n] = x[n-607] + x[n-273] (mod 2^64), whose first 607 outputs are
// fixed by the seed.
const (
	rngLen = 607
	rngTap = 273
)

// Source is a rand.Source64 that replays rand.NewSource(seed)'s stream
// bit for bit and, unlike it, copies by value: a copy continues the
// stream from the same point, independently of the original. An app
// whose outer loop draws random numbers keeps a Source in its State, so
// a cloned checkpoint resumes the stream exactly where the prefix left
// it instead of re-drawing the prefix's numbers.
//
// The zero value is not seeded; call Seed first. Use it through
// rand.New(&src), which draws only via Int63 and Uint64.
type Source struct {
	// vec holds the last rngLen outputs; vec[pos] is the oldest, x[n-607].
	vec [rngLen]uint64
	pos int
	// primed is false while vec still holds the seed's buffered first
	// rngLen outputs, which are returned as they are.
	primed bool
}

// Seed resets s to the stream rand.NewSource(seed) produces, by
// buffering that generator's first rngLen outputs: they are the
// recurrence's initial register.
func (s *Source) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for i := range s.vec {
		s.vec[i] = src.Uint64()
	}
	s.pos, s.primed = 0, false
}

// Uint64 returns the next value of the stream.
func (s *Source) Uint64() uint64 {
	i := s.pos
	x := s.vec[i]
	if s.primed {
		j := i + rngLen - rngTap // x[n-273]
		if j >= rngLen {
			j -= rngLen
		}
		x += s.vec[j]
		s.vec[i] = x
	}
	if s.pos++; s.pos == rngLen {
		s.pos, s.primed = 0, true
	}
	return x
}

// Int63 returns the next value of the stream as a non-negative int64,
// exactly as math/rand's own source does.
func (s *Source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
