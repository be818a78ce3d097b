// Package trace provides the deterministic work accounting and
// call-context logging OPPROX needs from an instrumented application
// (paper §3.3). The paper measures "speedup" as a ratio of instruction
// counts collected from hardware counters; here each approximable block
// reports abstract work units for the inner iterations it actually
// executes, which preserves every relative comparison while making runs
// bit-for-bit reproducible.
package trace

import (
	"fmt"
	"strings"
)

// Recorder accumulates work units and the call-context sequence of one run.
// The zero value is ready to use. Recorder is not safe for concurrent use;
// each run owns its own Recorder.
type Recorder struct {
	totalWork uint64
	iters     int
	// perIter[i] is the work recorded during outer iteration i.
	perIter []uint64
	// ctxOnce is the block-call sequence observed during the first outer
	// iteration — OPPROX's control-flow signature for the run.
	ctxOnce  []string
	perBlock map[string]uint64
}

// Clone returns an independent copy of r: recording into either one never
// affects the other. A run resumed from a checkpoint carries the clone, so
// its accounting includes the checkpointed prefix.
func (r *Recorder) Clone() Recorder {
	c := Recorder{
		totalWork: r.totalWork,
		iters:     r.iters,
		perIter:   append([]uint64(nil), r.perIter...),
		ctxOnce:   append([]string(nil), r.ctxOnce...),
	}
	if r.perBlock != nil {
		c.perBlock = make(map[string]uint64, len(r.perBlock))
		for b, w := range r.perBlock {
			c.perBlock[b] = w
		}
	}
	return c
}

// BeginIteration marks the start of an outer-loop iteration.
func (r *Recorder) BeginIteration() {
	r.iters++
	r.perIter = append(r.perIter, 0)
}

// Call records that the named approximable block executed, performing the
// given number of abstract work units.
func (r *Recorder) Call(block string, work uint64) {
	r.totalWork += work
	if n := len(r.perIter); n > 0 {
		r.perIter[n-1] += work
	}
	if r.iters <= 1 {
		r.ctxOnce = append(r.ctxOnce, block)
	}
	if r.perBlock == nil {
		r.perBlock = make(map[string]uint64)
	}
	r.perBlock[block] += work
}

// Overhead records work performed outside any approximable block (loop
// control, reductions, output assembly).
func (r *Recorder) Overhead(work uint64) {
	r.totalWork += work
	if n := len(r.perIter); n > 0 {
		r.perIter[n-1] += work
	}
}

// TotalWork returns the total abstract work units recorded.
func (r *Recorder) TotalWork() uint64 { return r.totalWork }

// Iterations returns the number of outer-loop iterations observed.
func (r *Recorder) Iterations() int { return r.iters }

// IterationWork returns a copy of the per-iteration work profile.
func (r *Recorder) IterationWork() []uint64 {
	out := make([]uint64, len(r.perIter))
	copy(out, r.perIter)
	return out
}

// BlockWork returns the total work attributed to one block.
func (r *Recorder) BlockWork(block string) uint64 { return r.perBlock[block] }

// ContextSignature returns the control-flow signature: the ordered
// sequence of approximable blocks executed in the first outer iteration,
// e.g. "forces>positions>strain>timeconstraints". Input-dependent filter
// orderings and block subsets produce distinct signatures (paper §3.4).
func (r *Recorder) ContextSignature() string {
	return strings.Join(r.ctxOnce, ">")
}

// String summarizes the recorder for debugging.
func (r *Recorder) String() string {
	return fmt.Sprintf("trace{work=%d iters=%d ctx=%s}", r.totalWork, r.iters, r.ContextSignature())
}

// Speedup returns baseline work / observed work — the paper's definition
// of speedup (§3.6). Returns 0 when the observed work is 0.
func Speedup(baselineWork, observedWork uint64) float64 {
	if observedWork == 0 {
		return 0
	}
	return float64(baselineWork) / float64(observedWork)
}

// WorkSavedPercent returns 100·(1 - observed/baseline): the "% less work"
// formulation the abstract uses. Negative when approximation backfired and
// the run did more work than the baseline.
func WorkSavedPercent(baselineWork, observedWork uint64) float64 {
	if baselineWork == 0 {
		return 0
	}
	return 100 * (1 - float64(observedWork)/float64(baselineWork))
}
