package server

import (
	"sync"
	"time"
)

// resultCache is the TTL result cache on the service hot path, keyed by
// canonicalized request. Values are fully marshaled JSON responses, so a
// hit costs one map lookup and zero encoding work. The worlds a document
// is computed from never change, so an entry leaves only when its TTL
// runs out or, with max entries held, when it is the earliest to expire.
type resultCache struct {
	mu      sync.Mutex
	ttl     time.Duration
	max     int
	now     func() time.Time
	entries map[string]cacheEntry
}

type cacheEntry struct {
	val     []byte
	expires time.Time
}

// newResultCache builds a cache. ttl < 0 disables caching entirely
// (every get misses, puts are dropped); max bounds the entry count.
func newResultCache(ttl time.Duration, max int, now func() time.Time) *resultCache {
	return &resultCache{ttl: ttl, max: max, now: now, entries: make(map[string]cacheEntry)}
}

func (c *resultCache) get(key string) ([]byte, bool) {
	if c.ttl < 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	if c.now().After(e.expires) {
		delete(c.entries, key)
		return nil, false
	}
	return e.val, true
}

func (c *resultCache) put(key string, val []byte) {
	if c.ttl < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) >= c.max {
		c.evictOldestLocked()
	}
	c.entries[key] = cacheEntry{val: val, expires: c.now().Add(c.ttl)}
}

// evictOldestLocked drops the earliest-expiring entry to make room.
func (c *resultCache) evictOldestLocked() {
	var oldestKey string
	var oldest time.Time
	for k, e := range c.entries {
		if oldestKey == "" || e.expires.Before(oldest) {
			oldestKey, oldest = k, e.expires
		}
	}
	if oldestKey != "" {
		delete(c.entries, oldestKey)
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// flightGroup deduplicates concurrent identical work: N callers asking
// for the same key while a run is in flight all wait on the one leader
// and share its result, so N concurrent identical requests trigger
// exactly one pipeline execution.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  []byte
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// do runs fn for key unless an identical call is already in flight, in
// which case it waits for that call and shares its result. shared
// reports whether this caller joined an existing flight.
func (g *flightGroup) do(key string, fn func() ([]byte, error)) (val []byte, err error, shared bool) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, c.err, true
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, c.err, false
}
