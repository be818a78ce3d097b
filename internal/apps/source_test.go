package apps

import (
	"math"
	"math/rand"
	"testing"
)

// drawMixed draws one value the way the apps do — Float64, NormFloat64
// or Intn, chosen by k — and returns its bits.
func drawMixed(r *rand.Rand, k int) uint64 {
	switch k % 3 {
	case 0:
		return math.Float64bits(r.Float64())
	case 1:
		return math.Float64bits(r.NormFloat64())
	default:
		return uint64(r.Intn(1000 + k))
	}
}

// TestSourceMatchesMathRand checks Source against rand.NewSource over
// many seeds (negative, zero and past int32 included) and a long mixed
// draw sequence that crosses the buffered prefix several times.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, math.MaxInt32, math.MaxInt32 + 7, math.MaxInt64, math.MinInt64}
	gen := rand.New(rand.NewSource(3))
	for len(seeds) < 64 {
		seeds = append(seeds, gen.Int63()-gen.Int63())
	}
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		var src Source
		src.Seed(seed)
		got := rand.New(&src)
		for k := 0; k < 5000; k++ {
			if w, g := drawMixed(want, k), drawMixed(got, k); w != g {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, k, g, w)
			}
		}
		if w, g := want.Uint64(), got.Uint64(); w != g {
			t.Fatalf("seed %d Uint64: got %#x, want %#x", seed, g, w)
		}
	}
}

// TestSourceCopyContinuesStream copies a Source mid-stream — inside and
// past the buffered prefix — and checks the copy and the original each
// continue the reference stream independently.
func TestSourceCopyContinuesStream(t *testing.T) {
	for _, at := range []int{0, 1, 300, rngLen - 1, rngLen, rngLen + 1, 2000} {
		ref := rand.New(rand.NewSource(42))
		var src Source
		src.Seed(42)
		orig := rand.New(&src)
		for k := 0; k < at; k++ {
			if drawMixed(ref, k) != drawMixed(orig, k) {
				t.Fatalf("diverged before the copy at draw %d", k)
			}
		}
		cp := src
		copied := rand.New(&cp)
		var tail []uint64
		for k := at; k < at+1500; k++ {
			tail = append(tail, drawMixed(ref, k))
		}
		// Interleave the two continuations: neither may disturb the other.
		for i, w := range tail {
			k := at + i
			if g := drawMixed(copied, k); g != w {
				t.Fatalf("copy at %d: draw %d got %#x, want %#x", at, k, g, w)
			}
			if g := drawMixed(orig, k); g != w {
				t.Fatalf("original after copy at %d: draw %d got %#x, want %#x", at, k, g, w)
			}
		}
	}
}
