package feedback

import (
	"sync"

	"opprox/internal/apps"
	"opprox/internal/core"
)

// DispatchRecord is the model-side context the server keeps for one
// served dispatch so a later feedback report can be judged: which model
// and version produced it, the request that was optimized, the schedule
// that was served, and the raw predictions + confidence bands per phase
// (core.PhaseDiag). Params and Levels are retained so a shadow model
// created after the dispatch can still be evaluated against the same
// realized values.
type DispatchRecord struct {
	ID      string
	Model   string
	Version string
	App     string
	Budget  float64
	Params  apps.Params
	Phases  int
	Levels  [][]int
	Diags   []core.PhaseDiag
}

// DefaultRecordCap bounds the in-memory dispatch-record store.
const DefaultRecordCap = 4096

// Records is a bounded dispatch-record store with FIFO eviction: when
// the cap is reached the oldest record is dropped and feedback for it is
// answered with "unknown dispatch". Dispatch IDs are deterministic
// content hashes, so re-inserting an ID refreshes nothing — the record
// bytes are identical by construction — and the store simply keeps the
// existing entry (and its eviction slot).
type Records struct {
	mu    sync.Mutex
	cap   int
	byID  map[string]*DispatchRecord
	order []string // insertion order, oldest first
}

// NewRecords builds a record store; capacity <= 0 uses DefaultRecordCap.
func NewRecords(capacity int) *Records {
	if capacity <= 0 {
		capacity = DefaultRecordCap
	}
	return &Records{cap: capacity, byID: make(map[string]*DispatchRecord)}
}

// Put stores a record, evicting the oldest entry when full. A record
// whose ID is already present is ignored (identical by construction).
func (r *Records) Put(rec *DispatchRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[rec.ID]; ok {
		return
	}
	if len(r.order) >= r.cap {
		oldest := r.order[0]
		r.order = r.order[1:]
		delete(r.byID, oldest)
	}
	r.byID[rec.ID] = rec
	r.order = append(r.order, rec.ID)
}

// Get returns the record for a dispatch ID.
func (r *Records) Get(id string) (*DispatchRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.byID[id]
	return rec, ok
}

// Len reports the number of stored records.
func (r *Records) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byID)
}
