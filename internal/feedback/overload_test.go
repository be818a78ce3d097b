package feedback

// Feedback-under-overload regression tests (ISSUE 9): the record store
// and the telemetry log are hammered concurrently by the serving layer
// during bursts — eviction churn in Records.Put races Log.Append from
// every dispatch and feedback goroutine. Run under -race.

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// TestRecordsLogConcurrentChurn drives Records.Put eviction churn and
// Log.Append from many goroutines at once: no data race, the store
// stays at its cap, and the log comes back complete with a strictly
// increasing sequence.
func TestRecordsLogConcurrentChurn(t *testing.T) {
	const cap, workers, iters = 32, 8, 200

	recs := NewRecords(cap)
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	l, err := OpenLogOptions(path, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("d-%d-%d", w, i)
				recs.Put(&DispatchRecord{ID: id, Model: "m", Phases: 1, Levels: [][]int{{0}}})
				// Re-Put of a live ID must be a no-op, not a refresh.
				recs.Put(&DispatchRecord{ID: id, Model: "m", Phases: 1})
				recs.Get(id)
				recs.Len()
				if err := l.Append(Entry{DispatchID: id, Model: "m", Phase: 0, Speedup: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if got := recs.Len(); got != cap {
		t.Fatalf("records after churn: %d, want the cap %d", got, cap)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := ReadLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != workers*iters {
		t.Fatalf("log entries: %d, want %d (lost appends under contention)", len(entries), workers*iters)
	}
	for i, e := range entries {
		if e.Seq != uint64(i)+1 {
			t.Fatalf("entry %d has seq %d: sequence not strictly increasing", i, e.Seq)
		}
	}
}
