package server

import (
	"fmt"
	"testing"
	"time"
)

// TestRateLimiterIdleSweep checks that buckets refilled to burst are
// dropped by the periodic sweep instead of living forever.
func TestRateLimiterIdleSweep(t *testing.T) {
	now := time.Unix(1000, 0)
	l := newRateLimiter(10, 5, func() time.Time { return now })

	for i := 0; i < 100; i++ {
		l.allow(fmt.Sprintf("idle-%d", i))
	}
	if got := len(l.buckets); got != 100 {
		t.Fatalf("tracked = %d, want 100", got)
	}

	// A long idle period refills everyone; the next sweep forgets them.
	now = now.Add(time.Hour)
	for i := 0; i < sweepEvery; i++ {
		l.allow("active")
	}
	if got := len(l.buckets); got > 2 {
		t.Fatalf("tracked = %d after idle sweep, want ≤ 2 (active client only)", got)
	}
}

// TestRateLimiterChurningClientsBounded is the satellite regression: a
// flood of distinct client IPs, all mid-debt so the idle sweep frees
// nothing, must not grow the map past maxTrackedClients.
func TestRateLimiterChurningClientsBounded(t *testing.T) {
	now := time.Unix(1000, 0)
	l := newRateLimiter(0.001, 1, func() time.Time { return now })

	for i := 0; i < 3*maxTrackedClients; i++ {
		// Each client spends its single burst token immediately, so no
		// bucket ever refills; only LRU eviction can bound the map.
		l.allow(fmt.Sprintf("churn-%d", i))
		now = now.Add(time.Millisecond)
	}
	if got := len(l.buckets); got > maxTrackedClients {
		t.Fatalf("tracked = %d, want ≤ %d (hard LRU bound)", got, maxTrackedClients)
	}
}

// TestRateLimiterStillLimitsAfterEviction checks eviction does not break
// enforcement: an active client keeps being throttled.
func TestRateLimiterStillLimitsAfterEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	l := newRateLimiter(1, 2, func() time.Time { return now })

	if !l.allow("victim") || !l.allow("victim") {
		t.Fatal("burst not granted")
	}
	if l.allow("victim") {
		t.Fatal("third request within the same instant should be limited")
	}
	// Unrelated churn (possibly evicting and rebuilding buckets) must
	// not mint tokens for the active client within the same instant.
	for i := 0; i < 100; i++ {
		l.allow(fmt.Sprintf("noise-%d", i))
	}
	if l.allow("victim") {
		t.Fatal("client got a token without time passing")
	}
	// After a second it earns exactly one token back.
	now = now.Add(time.Second)
	if !l.allow("victim") {
		t.Fatal("refill after 1s denied")
	}
	if l.allow("victim") {
		t.Fatal("got two tokens from a 1s refill at rate 1")
	}
}
