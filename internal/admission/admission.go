// Package admission is the ingress gatekeeper for the serving layer: a
// stdlib-only token-bucket rate limiter (per-client and global) with a
// sliding-window failure lockout, plus a bounded in-flight gate whose
// occupancy doubles as the load signal for the degradation ladder
// (internal/qos.Ladder).
//
// The limiter ports the period-limit / failure-limit idiom from the
// clip limit package into plain stdlib: each client gets a lazily
// refilled token bucket (tokens = min(burst, tokens + elapsed*rate))
// and a sliding failure window; too many invalid requests inside the
// window lock the client out entirely for a configurable duration.
// A second, global bucket caps aggregate throughput across clients.
//
// Determinism note: admission decisions are load- and clock-dependent
// by design. They select *which* ladder rung serves a request; they
// never leak into response bodies, so the byte-determinism contract
// (DESIGN.md §8, §15) is preserved per (model version, request, rung).
//
// The steady-state Allow path performs zero heap allocations (pinned
// by BenchmarkLimiterAllow): client state is found by string map
// lookup, and LRU maintenance is pointer surgery on intrusive list
// nodes.
package admission

import (
	"sync"
	"time"
)

// Defaults. Rates are tokens per second; zero rates disable that
// bucket (unlimited).
const (
	DefaultMaxClients    = 4096
	DefaultFailureWindow = 10 * time.Second
	DefaultLockout       = 30 * time.Second
)

// Options configures a Limiter. The zero value disables every check
// (all requests admitted); set only the knobs you want.
type Options struct {
	// ClientRate/ClientBurst shape each client's token bucket.
	// ClientRate <= 0 disables per-client rate limiting.
	// ClientBurst <= 0 defaults to max(1, ClientRate).
	ClientRate  float64
	ClientBurst float64
	// GlobalRate shapes the aggregate bucket across all clients, whose
	// burst is max(1, GlobalRate). GlobalRate <= 0 disables it.
	GlobalRate float64
	// FailureLimit locks a client out after this many recorded
	// failures (invalid bodies) inside DefaultFailureWindow. <= 0
	// disables lockout.
	FailureLimit int
	// Lockout is how long a locked-out client stays rejected (<= 0:
	// DefaultLockout).
	Lockout time.Duration
	// Now is the clock (tests inject a fake). Default time.Now.
	Now func() time.Time

	// globalBurst, failureWindow and maxClients override max(1,
	// GlobalRate), DefaultFailureWindow and DefaultMaxClients (zero:
	// the default); only this package's tests set them. Per-client
	// state is bounded by maxClients: the least recently seen client is
	// evicted when the bound is hit (its bucket and lockout reset).
	globalBurst   float64
	failureWindow time.Duration
	maxClients    int
}

// Decision is the outcome of one admission check.
type Decision struct {
	// OK admits the request.
	OK bool
	// RetryAfter estimates how long until a retry could succeed
	// (lockout remaining, or time until one token refills). Zero when
	// OK.
	RetryAfter time.Duration
	// Reason classifies a rejection: "locked_out", "client_rate" or
	// "global_rate". Empty when OK.
	Reason string
}

// Rejection reasons.
const (
	ReasonLockedOut  = "locked_out"
	ReasonClientRate = "client_rate"
	ReasonGlobalRate = "global_rate"
)

// client is one tracked client's bucket, failure window and lockout,
// threaded on an intrusive LRU list (no container/list: its nodes
// would allocate on every move).
type client struct {
	key string

	tokens float64
	last   time.Time

	failures    int
	windowStart time.Time
	lockedUntil time.Time

	prev, next *client
}

// Limiter is a concurrency-safe admission limiter. One mutex guards
// everything: admission checks are tens of nanoseconds, so sharding
// the lock buys nothing at serving-layer request rates.
type Limiter struct {
	opts Options

	mu      sync.Mutex
	clients map[string]*client
	// LRU list: head = most recently seen, tail = eviction candidate.
	head, tail *client

	globalTokens float64
	globalLast   time.Time
}

// NewLimiter builds a Limiter. A nil-equivalent Options (all zero)
// admits everything.
func NewLimiter(opts Options) *Limiter {
	if opts.ClientRate > 0 && opts.ClientBurst <= 0 {
		opts.ClientBurst = opts.ClientRate
		if opts.ClientBurst < 1 {
			opts.ClientBurst = 1
		}
	}
	if opts.GlobalRate > 0 && opts.globalBurst <= 0 {
		opts.globalBurst = opts.GlobalRate
		if opts.globalBurst < 1 {
			opts.globalBurst = 1
		}
	}
	if opts.FailureLimit > 0 {
		if opts.failureWindow <= 0 {
			opts.failureWindow = DefaultFailureWindow
		}
		if opts.Lockout <= 0 {
			opts.Lockout = DefaultLockout
		}
	}
	if opts.maxClients <= 0 {
		opts.maxClients = DefaultMaxClients
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	l := &Limiter{opts: opts, clients: make(map[string]*client)}
	l.globalTokens = opts.globalBurst
	return l
}

// Allow decides admission for one request from key, charging one token
// from the client's bucket and one from the global bucket on success.
// Lockout is checked first and never charges tokens.
func (l *Limiter) Allow(key string) Decision {
	now := l.opts.Now()
	l.mu.Lock()
	defer l.mu.Unlock()

	c := l.touch(key, now)
	if until := c.lockedUntil; now.Before(until) {
		return Decision{RetryAfter: until.Sub(now), Reason: ReasonLockedOut}
	}
	if l.opts.ClientRate > 0 {
		refill(&c.tokens, &c.last, now, l.opts.ClientRate, l.opts.ClientBurst)
		if c.tokens < 1 {
			return Decision{RetryAfter: tokenWait(c.tokens, l.opts.ClientRate), Reason: ReasonClientRate}
		}
	}
	if l.opts.GlobalRate > 0 {
		refill(&l.globalTokens, &l.globalLast, now, l.opts.GlobalRate, l.opts.globalBurst)
		if l.globalTokens < 1 {
			return Decision{RetryAfter: tokenWait(l.globalTokens, l.opts.GlobalRate), Reason: ReasonGlobalRate}
		}
	}
	// Both buckets have capacity: charge them together so a global
	// rejection never burns the client's token.
	if l.opts.ClientRate > 0 {
		c.tokens--
	}
	if l.opts.GlobalRate > 0 {
		l.globalTokens--
	}
	return Decision{OK: true}
}

// NoteFailure records one invalid request from key (malformed or
// unvalidatable body). FailureLimit failures inside the failure window
// lock the client out for Lockout; the window slides by resetting when
// more than the window has passed since its first failure.
func (l *Limiter) NoteFailure(key string) {
	if l.opts.FailureLimit <= 0 {
		return
	}
	now := l.opts.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.touch(key, now)
	if c.failures == 0 || now.Sub(c.windowStart) > l.opts.failureWindow {
		c.failures = 0
		c.windowStart = now
	}
	c.failures++
	if c.failures >= l.opts.FailureLimit {
		c.lockedUntil = now.Add(l.opts.Lockout)
		c.failures = 0
	}
}

// LockedOut reports whether key is currently locked out and, if so,
// for how much longer. It never charges tokens — a sharded ingress
// uses it to reject abusive clients before the proxy hop while leaving
// rate accounting to the owning replica.
func (l *Limiter) LockedOut(key string) (bool, time.Duration) {
	now := l.opts.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.clients[key]
	if !ok || !now.Before(c.lockedUntil) {
		return false, 0
	}
	return true, c.lockedUntil.Sub(now)
}

// Clients reports the number of tracked clients (bounded by
// DefaultMaxClients).
func (l *Limiter) Clients() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.clients)
}

// touch returns key's state, creating it (with a full bucket) on first
// sight, moving it to the LRU head, and evicting the tail past
// maxClients. Caller holds l.mu.
func (l *Limiter) touch(key string, now time.Time) *client {
	c, ok := l.clients[key]
	if !ok {
		c = &client{key: key, tokens: l.opts.ClientBurst, last: now}
		l.clients[key] = c
		l.pushFront(c)
		if len(l.clients) > l.opts.maxClients {
			ev := l.tail
			l.unlink(ev)
			delete(l.clients, ev.key)
		}
		return c
	}
	if l.head != c {
		l.unlink(c)
		l.pushFront(c)
	}
	return c
}

func (l *Limiter) pushFront(c *client) {
	c.prev = nil
	c.next = l.head
	if l.head != nil {
		l.head.prev = c
	}
	l.head = c
	if l.tail == nil {
		l.tail = c
	}
}

func (l *Limiter) unlink(c *client) {
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		l.head = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	} else {
		l.tail = c.prev
	}
	c.prev, c.next = nil, nil
}

// refill is the lazy token-bucket refill: tokens grows by
// elapsed*rate, clamped to burst. Negative elapsed (clock skew under a
// fake clock) is ignored.
func refill(tokens *float64, last *time.Time, now time.Time, rate, burst float64) {
	elapsed := now.Sub(*last).Seconds()
	if elapsed > 0 {
		*tokens += elapsed * rate
		if *tokens > burst {
			*tokens = burst
		}
	}
	*last = now
}

// tokenWait estimates the time until the bucket holds one token.
func tokenWait(tokens, rate float64) time.Duration {
	need := 1 - tokens
	if need < 0 {
		need = 0
	}
	d := time.Duration(need / rate * float64(time.Second))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}
