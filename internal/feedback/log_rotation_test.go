package feedback

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// appendN appends n entries with deterministic content and returns them
// as written (Seq filled in by the log).
func appendN(t *testing.T, l *Log, n, offset int) {
	t.Helper()
	for i := 0; i < n; i++ {
		err := l.Append(Entry{
			DispatchID: fmt.Sprintf("d%03d", offset+i),
			Model:      "m",
			Version:    "v1",
			App:        "pso",
			Budget:     10,
			Params:     map[string]float64{"swarm": 16},
			Levels:     []int{1, 0},
			Phase:      i % 2,
			Speedup:    1.5,
			SpeedupRes: 0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestLogRotationByteIdentity pins the rotation contract: replaying a
// rotated log (segments + live file, in order) yields exactly the
// entries an unrotated log written from the same appends yields — and
// the concatenated segment bytes are byte-identical to the unrotated
// file.
func TestLogRotationByteIdentity(t *testing.T) {
	dir := t.TempDir()
	const n = 50

	plain, err := OpenLogOptions(filepath.Join(dir, "plain.jsonl"), LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, plain, n, 0)
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}

	// A tiny MaxBytes forces many rotations.
	rotPath := filepath.Join(dir, "rot.jsonl")
	rot, err := OpenLogOptions(rotPath, LogOptions{MaxBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, rot, n, 0)
	if err := rot.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := logSegments(rotPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %v", segs)
	}
	var concat []byte
	for _, p := range append(segs, rotPath) {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		concat = append(concat, b...)
	}
	plainBytes, err := os.ReadFile(filepath.Join(dir, "plain.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(concat) != string(plainBytes) {
		t.Fatalf("rotated segments do not concatenate to the unrotated stream:\n%d vs %d bytes", len(concat), len(plainBytes))
	}

	want, err := ReadLogFile(filepath.Join(dir, "plain.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadLogFile(rotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rotated replay differs: %d vs %d entries", len(got), len(want))
	}
	if len(got) != n {
		t.Fatalf("replayed %d entries, want %d", len(got), n)
	}
}

// TestLogRotationSeqResume reopens a rotated log and checks the
// sequence resumes past the highest seq across ALL segments, not just
// the live file.
func TestLogRotationSeqResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	l, err := OpenLogOptions(path, LogOptions{MaxBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 10, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLogOptions(path, LogOptions{MaxBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l2, 5, 10)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := ReadLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 15 {
		t.Fatalf("replayed %d entries, want 15", len(entries))
	}
	for i, e := range entries {
		if e.Seq != uint64(i)+1 {
			t.Fatalf("entry %d has seq %d: sequence broke across reopen/rotation", i, e.Seq)
		}
	}
}

// TestScanLogWhileAppending replays a rotating log while a writer keeps
// appending and rotating underneath it: the scan must deliver a
// consistent prefix (strictly increasing seq, no duplicates from the
// segment/live handoff).
func TestScanLogWhileAppending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	l, err := OpenLogOptions(path, LogOptions{MaxBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 20, 0)

	done := make(chan struct{})
	go func() {
		defer close(done)
		appendN(t, l, 200, 20)
	}()
	for i := 0; i < 20; i++ {
		last := uint64(0)
		err := ScanLog(path, func(e Entry) error {
			if e.Seq <= last {
				t.Errorf("seq %d after %d: duplicate or reorder during concurrent scan", e.Seq, last)
			}
			last = e.Seq
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if last < 20 {
			t.Fatalf("scan lost the already-written prefix: saw up to seq %d", last)
		}
	}
	<-done
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordsSnapshotChurn hammers reads against Put eviction churn
// (run under -race): every read sees an intact record or none, the
// store never exceeds its cap, and eviction stays FIFO afterwards.
func TestRecordsSnapshotChurn(t *testing.T) {
	const cap, workers, iters = 32, 8, 300
	recs := NewRecords(cap)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("d-%d-%d", w, i)
				recs.Put(&DispatchRecord{ID: id, Model: "m", Phases: 1, Levels: [][]int{{0}}})
				if n := recs.Len(); n > cap {
					t.Errorf("store larger than cap: %d", n)
					return
				}
				for j := i; j >= 0 && j > i-cap; j-- {
					want := fmt.Sprintf("d-%d-%d", w, j)
					if rec, ok := recs.Get(want); ok && (rec == nil || rec.ID != want) {
						t.Errorf("Get(%q) returned torn record %+v", want, rec)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got := recs.Len(); got != cap {
		t.Fatalf("records after churn: %d, want the cap %d", got, cap)
	}
	// cap fresh records evict every churned one, oldest first.
	for i := 0; i < cap; i++ {
		recs.Put(&DispatchRecord{ID: fmt.Sprintf("fresh-%d", i), Model: "m"})
		if _, ok := recs.Get("fresh-0"); !ok {
			t.Fatalf("oldest fresh record evicted after %d puts", i+1)
		}
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < iters; i++ {
			if _, ok := recs.Get(fmt.Sprintf("d-%d-%d", w, i)); ok {
				t.Fatalf("churned record d-%d-%d survived %d fresh puts", w, i, cap)
			}
		}
	}
}
