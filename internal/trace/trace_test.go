package trace

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var r Recorder
	r.Call("a", 10) // before any iteration: still counted in totals
	if r.TotalWork() != 10 {
		t.Fatalf("TotalWork = %d, want 10", r.TotalWork())
	}
	if r.Iterations() != 0 {
		t.Fatalf("Iterations = %d, want 0", r.Iterations())
	}
}

func TestIterationAccounting(t *testing.T) {
	var r Recorder
	r.BeginIteration()
	r.Call("a", 5)
	r.Call("b", 7)
	r.BeginIteration()
	r.Call("a", 3)
	r.Overhead(2)
	if r.Iterations() != 2 {
		t.Fatalf("Iterations = %d, want 2", r.Iterations())
	}
	iw := r.IterationWork()
	if iw[0] != 12 || iw[1] != 5 {
		t.Fatalf("IterationWork = %v, want [12 5]", iw)
	}
	if r.TotalWork() != 17 {
		t.Fatalf("TotalWork = %d, want 17", r.TotalWork())
	}
	if r.BlockWork("a") != 8 || r.BlockWork("b") != 7 {
		t.Fatalf("BlockWork a=%d b=%d", r.BlockWork("a"), r.BlockWork("b"))
	}
}

func TestContextSignatureFirstIterationOnly(t *testing.T) {
	var r Recorder
	r.BeginIteration()
	r.Call("f", 1)
	r.Call("g", 1)
	r.BeginIteration()
	r.Call("h", 1) // second iteration must not extend the signature
	if got := r.ContextSignature(); got != "f>g" {
		t.Fatalf("ContextSignature = %q, want f>g", got)
	}
}

func TestIterationWorkIsCopy(t *testing.T) {
	var r Recorder
	r.BeginIteration()
	r.Call("a", 1)
	iw := r.IterationWork()
	iw[0] = 999
	if r.IterationWork()[0] != 1 {
		t.Fatal("IterationWork must return a copy")
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(100, 50) != 2 {
		t.Fatal("Speedup(100,50) != 2")
	}
	if Speedup(100, 0) != 0 {
		t.Fatal("Speedup with zero observed should be 0")
	}
	if Speedup(100, 200) != 0.5 {
		t.Fatal("slowdown should be < 1")
	}
}

func TestWorkSavedPercent(t *testing.T) {
	if got := WorkSavedPercent(100, 80); math.Abs(got-20) > 1e-9 {
		t.Fatalf("WorkSaved = %g, want 20", got)
	}
	if got := WorkSavedPercent(100, 120); math.Abs(got+20) > 1e-9 {
		t.Fatalf("WorkSaved = %g, want -20", got)
	}
	if got := WorkSavedPercent(0, 50); got != 0 {
		t.Fatalf("WorkSaved with zero baseline = %g, want 0", got)
	}
}

func TestStringSmoke(t *testing.T) {
	var r Recorder
	r.BeginIteration()
	r.Call("x", 4)
	if r.String() == "" {
		t.Fatal("String is empty")
	}
}

// Property: total work equals the sum of per-iteration work when all work
// happens inside iterations.
func TestTotalMatchesPerIterSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var r Recorder
		var want uint64
		iters := 1 + rng.Intn(20)
		for i := 0; i < iters; i++ {
			r.BeginIteration()
			calls := rng.Intn(5)
			for c := 0; c < calls; c++ {
				w := uint64(rng.Intn(100))
				r.Call("b", w)
				want += w
			}
		}
		var sum uint64
		for _, w := range r.IterationWork() {
			sum += w
		}
		return r.TotalWork() == want && sum == want && r.Iterations() == iters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// record builds a recorder with a known mixed history.
func record() *Recorder {
	var r Recorder
	r.BeginIteration()
	r.Call("forces", 120)
	r.Call("positions", 40)
	r.Overhead(3)
	r.BeginIteration()
	r.Call("forces", 110)
	r.Call("strain", 9)
	return &r
}

// recorderView is everything a Recorder's accessors report, for
// comparing two recorders.
type recorderView struct {
	TotalWork  uint64
	Iterations int
	PerIter    []uint64
	Context    string
	BlockWork  map[string]uint64
}

func view(r *Recorder) recorderView {
	v := recorderView{
		TotalWork:  r.TotalWork(),
		Iterations: r.Iterations(),
		PerIter:    r.IterationWork(),
		Context:    r.ContextSignature(),
		BlockWork:  map[string]uint64{},
	}
	for _, b := range []string{"forces", "positions", "strain", "late"} {
		v.BlockWork[b] = r.BlockWork(b)
	}
	return v
}

// TestCloneIsolated verifies a clone reports what its original did and
// that recording into one never reaches the other — a checkpointed run
// and every run resumed from it share nothing.
func TestCloneIsolated(t *testing.T) {
	r := record()
	c := r.Clone()
	if !reflect.DeepEqual(view(&c), view(r)) {
		t.Fatalf("clone differs:\n got %+v\nwant %+v", view(&c), view(r))
	}
	want := view(r)
	c.Call("strain", 5)
	c.BeginIteration()
	c.Call("late", 7)
	if !reflect.DeepEqual(view(r), want) {
		t.Errorf("original mutated by recording into its clone: %+v", view(r))
	}
	if c.TotalWork() != r.TotalWork()+12 || c.Iterations() != 3 || c.BlockWork("strain") != 14 {
		t.Errorf("clone accounting wrong: %s", &c)
	}
	var zero Recorder
	z := zero.Clone()
	z.BeginIteration()
	z.Call("a", 1)
	if zero.Iterations() != 0 || zero.TotalWork() != 0 || z.ContextSignature() != "a" {
		t.Errorf("zero clone not independent: zero %s clone %s", &zero, &z)
	}
}
