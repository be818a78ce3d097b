package serve

// The dispatch-plan cache. PR 4/5 made dispatch responses a pure
// function of (model content-hash version, canonicalized params,
// budget); this file exploits that: the serialized response body of a
// successful, non-degraded dispatch is cached under exactly that tuple,
// so a repeat dispatch is a map lookup instead of an Optimize pass.
//
// The contract (invariant D10 in DESIGN.md §12):
//
//   - Transparency. A cached body is the byte-identical serialized form
//     a fresh Optimize would produce — guaranteed structurally, because
//     the cache stores the bytes the cold path just served, and the key
//     pins every input the body depends on (model identity AND version,
//     canonicalized params, budget, app). The conformance suite pins
//     this black-box.
//   - Version safety. The key includes the live content-hash version, so
//     a promote/rollback/reload can never serve a stale plan even if
//     invalidation raced; invalidation (wired through
//     lifecycle.Options.OnSwap) exists to release memory promptly, not
//     for correctness.
//   - Bounded. LRU eviction caps memory; hit/miss/eviction/invalidation
//     counters live in obs under serve.plan.cache.*.
//   - Allocation-free hits. The key is built into pooled scratch and
//     looked up without materializing a string, so the steady-state hit
//     path performs zero heap allocations (pinned by a test and tracked
//     by BenchmarkDispatchPlanCacheHit).

import (
	"encoding/binary"
	"slices"
	"strconv"
	"sync"

	"opprox/internal/feedback"
	"opprox/internal/obs"
)

// DefaultPlanCacheCap bounds the plan cache when Options.PlanCacheCap is
// zero. Entries are small (one serialized response plus its dispatch
// record), so the default is generous.
const DefaultPlanCacheCap = 1024

// planEntry is one cached dispatch plan: the exact response bytes the
// cold path served (including the trailing newline) plus the dispatch
// record that keeps the feedback loop alive across record-store
// eviction. Entries are immutable after insertion; the intrusive
// prev/next links implement the LRU list.
type planEntry struct {
	key   string
	model string // base model name, for per-model invalidation
	body  []byte
	rec   *feedback.DispatchRecord

	prev, next *planEntry
}

// planCache is a bounded LRU over plan entries. A capacity < 0 disables
// the cache entirely (every lookup misses, nothing is stored) — the
// conformance tests use that to force every dispatch to compute.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*planEntry
	head    *planEntry // most recently used
	tail    *planEntry // least recently used
}

func newPlanCache(capacity int) *planCache {
	if capacity == 0 {
		capacity = DefaultPlanCacheCap
	}
	return &planCache{cap: capacity, entries: map[string]*planEntry{}}
}

// get returns the entry for the key bytes, promoting it to most recently
// used. The []byte-keyed map lookup compiles without a string
// allocation, which is what keeps the hit path allocation-free.
func (c *planCache) get(key []byte) *planEntry {
	if c.cap < 0 {
		return nil
	}
	c.mu.Lock()
	e, ok := c.entries[string(key)]
	if !ok {
		c.mu.Unlock()
		obs.Inc("serve.plan.cache.miss")
		return nil
	}
	c.moveToFront(e)
	c.mu.Unlock()
	obs.Inc("serve.plan.cache.hit")
	return e
}

// put inserts a computed plan, evicting the least recently used entry
// when full. Re-inserting an existing key refreshes recency only: the
// body is identical by construction (the key pins every input).
func (c *planCache) put(key, model string, body []byte, rec *feedback.DispatchRecord) {
	if c.cap < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.moveToFront(e)
		return
	}
	if len(c.entries) >= c.cap {
		if lru := c.tail; lru != nil {
			c.unlink(lru)
			delete(c.entries, lru.key)
			obs.Inc("serve.plan.cache.evicted")
		}
	}
	e := &planEntry{key: key, model: model, body: body, rec: rec}
	c.entries[key] = e
	c.pushFront(e)
}

// invalidateModel drops every entry for a base model name — the
// lifecycle layer calls this (via Options.OnSwap) whenever the live
// version changes, so a retired version's plans release their memory
// immediately. Returns the number of entries dropped.
func (c *planCache) invalidateModel(model string) int {
	if c.cap < 0 {
		return 0
	}
	c.mu.Lock()
	dropped := 0
	for e := c.head; e != nil; {
		next := e.next
		if e.model == model {
			c.unlink(e)
			delete(c.entries, e.key)
			dropped++
		}
		e = next
	}
	c.mu.Unlock()
	if dropped > 0 {
		obs.Add("serve.plan.cache.invalidated", int64(dropped))
	}
	return dropped
}

// len reports the number of cached plans.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// moveToFront promotes e to most recently used (c.mu held).
func (c *planCache) moveToFront(e *planEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *planCache) pushFront(e *planEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *planCache) unlink(e *planEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// planKey is pooled scratch for building cache keys without allocating.
type planKey struct {
	buf  []byte
	keys []string
}

var planKeyPool = sync.Pool{
	New: func() any {
		return &planKey{buf: make([]byte, 0, 256), keys: make([]string, 0, 16)}
	},
}

func (kb *planKey) release() {
	kb.buf = kb.buf[:0]
	kb.keys = kb.keys[:0]
	planKeyPool.Put(kb)
}

// appendPlanKey builds the canonical cache key for (request, model
// version) into kb.buf. Every field is length-prefixed (uvarint), so the
// encoding is injective — no two distinct (model, version, app, budget,
// params) tuples share a key. Params are canonicalized by sorting the
// names and rendering each value with strconv's shortest round-trip
// float format, so two requests with the same parameter set produce the
// same key regardless of JSON field order, and any two distinct float64
// values produce distinct keys.
func appendPlanKey(kb *planKey, dreq *DispatchRequest, version string) {
	kb.buf = appendKeyField(kb.buf, dreq.ModelPath)
	kb.buf = appendKeyField(kb.buf, version)
	kb.buf = appendKeyField(kb.buf, dreq.App)
	kb.buf = appendKeyFloat(kb.buf, dreq.Budget)
	kb.buf = binary.AppendUvarint(kb.buf, uint64(len(dreq.Params)))
	for name := range dreq.Params {
		kb.keys = append(kb.keys, name)
	}
	slices.Sort(kb.keys)
	for _, name := range kb.keys {
		kb.buf = appendKeyField(kb.buf, name)
		kb.buf = appendKeyFloat(kb.buf, dreq.Params[name])
	}
}

func appendKeyField(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendKeyFloat(buf []byte, v float64) []byte {
	// Render into stack scratch first so the length prefix can precede
	// the digits without shifting them (the shortest float64 form never
	// exceeds 24 bytes, so one prefix byte always suffices — and the
	// scratch never escapes, keeping the key build allocation-free).
	var tmp [32]byte
	s := strconv.AppendFloat(tmp[:0], v, 'g', -1, 64)
	buf = append(buf, byte(len(s)))
	return append(buf, s...)
}
