package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

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

func TestSnapshotRoundTrip(t *testing.T) {
	r := record()
	snap := r.Snapshot()

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded RecorderSnapshot
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	back := FromSnapshot(decoded)

	if back.TotalWork() != r.TotalWork() {
		t.Errorf("TotalWork = %d, want %d", back.TotalWork(), r.TotalWork())
	}
	if back.Iterations() != r.Iterations() {
		t.Errorf("Iterations = %d, want %d", back.Iterations(), r.Iterations())
	}
	if !reflect.DeepEqual(back.IterationWork(), r.IterationWork()) {
		t.Errorf("IterationWork = %v, want %v", back.IterationWork(), r.IterationWork())
	}
	if back.ContextSignature() != r.ContextSignature() {
		t.Errorf("ContextSignature = %q, want %q", back.ContextSignature(), r.ContextSignature())
	}
	for _, block := range []string{"forces", "positions", "strain", "absent"} {
		if back.BlockWork(block) != r.BlockWork(block) {
			t.Errorf("BlockWork(%q) = %d, want %d", block, back.BlockWork(block), r.BlockWork(block))
		}
	}
	if !reflect.DeepEqual(back.Snapshot(), snap) {
		t.Errorf("re-snapshot differs:\n got %+v\nwant %+v", back.Snapshot(), snap)
	}
}

// TestSnapshotBytesDeterministic pins the byte-identical-encoding
// property the determinism story relies on: the same history always
// marshals to the same bytes.
func TestSnapshotBytesDeterministic(t *testing.T) {
	a, err := json.Marshal(record().Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for i := 0; i < 10; i++ {
		b, err := json.Marshal(record().Snapshot())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("encoding differs between identical recorders:\n%s\n%s", a, b)
		}
	}
}

// TestSnapshotIsolated verifies snapshot and recorder share no state.
func TestSnapshotIsolated(t *testing.T) {
	r := record()
	snap := r.Snapshot()
	r.BeginIteration()
	r.Call("late", 999)
	if snap.TotalWork != 282 || len(snap.PerIteration) != 2 || snap.BlockWork["late"] != 0 {
		t.Errorf("snapshot mutated by later recording: %+v", snap)
	}

	back := FromSnapshot(snap)
	snap.PerIteration[0] = 0
	snap.BlockWork["forces"] = 0
	if iw := back.IterationWork(); iw[0] != 163 {
		t.Errorf("rehydrated recorder shares PerIteration with snapshot: %v", iw)
	}
	if back.BlockWork("forces") != 230 {
		t.Errorf("rehydrated recorder shares BlockWork with snapshot: %d", back.BlockWork("forces"))
	}
}

func TestZeroRecorderSnapshot(t *testing.T) {
	var r Recorder
	snap := r.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if string(data) != `{"total_work":0,"iterations":0}` {
		t.Errorf("zero snapshot = %s", data)
	}
	back := FromSnapshot(snap)
	if back.TotalWork() != 0 || back.Iterations() != 0 || back.ContextSignature() != "" {
		t.Errorf("zero round-trip not zero: %s", back)
	}
}

// TestCloneIsolated verifies a clone reports what its original did and
// that recording into one never reaches the other — a checkpointed run
// and every run resumed from it share nothing.
func TestCloneIsolated(t *testing.T) {
	r := record()
	c := r.Clone()
	if !reflect.DeepEqual(c.Snapshot(), r.Snapshot()) {
		t.Fatalf("clone differs:\n got %+v\nwant %+v", c.Snapshot(), r.Snapshot())
	}
	want := r.Snapshot()
	c.Call("strain", 5)
	c.BeginIteration()
	c.Call("late", 7)
	if !reflect.DeepEqual(r.Snapshot(), want) {
		t.Errorf("original mutated by recording into its clone: %+v", r.Snapshot())
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
