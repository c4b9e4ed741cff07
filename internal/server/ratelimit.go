package server

import (
	"sort"
	"sync"
	"time"
)

// rateLimiter is a per-client token bucket: each client key (API key or
// remote host) accrues rate tokens per second up to burst, and every
// request spends one. A nil limiter or rate <= 0 admits everything.
//
// The bucket map is bounded two ways. A periodic idle sweep (every
// sweepEvery admissions) drops buckets that have refilled to burst —
// clients idle long enough to have forgotten any debt. If churning
// client IPs outrun the sweep (buckets that are neither full nor
// active), a hard eviction drops the least-recently-seen buckets down
// to maxTrackedClients. Both err in the client's favour: an evicted
// client rebuilds at full burst on next sight.
type rateLimiter struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	now     func() time.Time
	buckets map[string]*tokenBucket
	// admissions counts allow() calls since the last idle sweep.
	admissions int
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// maxTrackedClients bounds the bucket map.
const maxTrackedClients = 4096

// sweepEvery paces the idle sweep: one full-map pass per this many
// allow() calls keeps amortized cost O(1) per request.
const sweepEvery = 1024

// evictBatch is how far below the cap a hard eviction clears, so the
// recency sort amortizes over that many subsequent insertions.
const evictBatch = 256

func newRateLimiter(rate float64, burst int, now func() time.Time) *rateLimiter {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 8
	}
	return &rateLimiter{rate: rate, burst: float64(burst), now: now, buckets: make(map[string]*tokenBucket)}
}

// allow reports whether the client may proceed, spending a token if so.
func (l *rateLimiter) allow(client string) bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	l.admissions++
	if l.admissions >= sweepEvery {
		l.admissions = 0
		l.pruneLocked(now)
	}
	b, ok := l.buckets[client]
	if !ok {
		if len(l.buckets) >= maxTrackedClients {
			l.pruneLocked(now)
			// Evict down to a margin below the cap, not just one slot:
			// one O(n log n) recency sort then pays for evictBatch
			// insertions before the next.
			if over := len(l.buckets) - maxTrackedClients + evictBatch; over > 0 {
				l.evictOldestLocked(over)
			}
		}
		b = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[client] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * l.rate
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// pruneLocked drops buckets whose balance has refilled to burst — the
// client has been idle long enough that forgetting it changes nothing.
func (l *rateLimiter) pruneLocked(now time.Time) {
	for k, b := range l.buckets {
		refilled := b.tokens + now.Sub(b.last).Seconds()*l.rate
		if refilled >= l.burst {
			delete(l.buckets, k)
		}
	}
}

// evictOldestLocked force-drops the n least-recently-seen buckets. This
// is the churning-IP backstop: when slow refill keeps pruneLocked from
// freeing anything, recency decides who is forgotten.
func (l *rateLimiter) evictOldestLocked(n int) {
	type entry struct {
		key  string
		last time.Time
	}
	entries := make([]entry, 0, len(l.buckets))
	for k, b := range l.buckets {
		entries = append(entries, entry{key: k, last: b.last})
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].last.Equal(entries[j].last) {
			return entries[i].last.Before(entries[j].last)
		}
		return entries[i].key < entries[j].key
	})
	if n > len(entries) {
		n = len(entries)
	}
	for _, e := range entries[:n] {
		delete(l.buckets, e.key)
	}
}
