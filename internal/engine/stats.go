package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Stats is a registry of per-stage counters and latency histograms. One
// registry is shared by every stage of a pipeline run; stages register
// lazily on first use. All methods are safe for concurrent use, and a nil
// *Stats is a valid no-op sink.
type Stats struct {
	mu     sync.Mutex
	stages map[string]*StageStats
	order  []string
}

// NewStats returns an empty registry.
func NewStats() *Stats {
	return &Stats{stages: make(map[string]*StageStats)}
}

// stage returns the named stage's collector, creating it on first use.
// A nil registry returns a nil collector (also a valid no-op sink).
func (s *Stats) stage(name string) *StageStats {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.stages[name]
	if !ok {
		st = &StageStats{name: name}
		s.stages[name] = st
		s.order = append(s.order, name)
	}
	return st
}

// Stage exposes the named stage's collector for callers that record
// attempts outside the pool (e.g. a one-shot bulk lookup).
func (s *Stats) Stage(name string) *StageStats { return s.stage(name) }

// Snapshot captures every stage's current counters, sorted by stage name.
func (s *Stats) Snapshot() Snapshot {
	var snap Snapshot
	if s == nil {
		return snap
	}
	s.mu.Lock()
	names := append([]string(nil), s.order...)
	stages := make([]*StageStats, 0, len(names))
	for _, n := range names {
		stages = append(stages, s.stages[n])
	}
	s.mu.Unlock()
	for _, st := range stages {
		snap.Stages = append(snap.Stages, st.snapshot())
	}
	sort.Slice(snap.Stages, func(i, j int) bool { return snap.Stages[i].Stage < snap.Stages[j].Stage })
	return snap
}

// histogram buckets latencies by power-of-two nanoseconds: bucket i holds
// samples in [2^i, 2^(i+1)) ns. 64 buckets cover every representable
// duration.
const histBuckets = 64

type histogram struct {
	counts [histBuckets]uint64
	total  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

func bucketFor(d time.Duration) int {
	if d < 1 {
		return 0
	}
	b := 0
	for v := uint64(d); v > 1; v >>= 1 {
		b++
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

func (h *histogram) observe(d time.Duration) {
	h.counts[bucketFor(d)]++
	h.total++
	h.sum += d
	if h.total == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// quantile returns an upper bound of the p-quantile (0 < p <= 1): the top
// edge of the histogram bucket containing that rank.
func (h *histogram) quantile(p float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	rank := uint64(p * float64(h.total))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			upper := time.Duration(1) << uint(i+1)
			if upper > h.max || upper <= 0 {
				return h.max
			}
			return upper
		}
	}
	return h.max
}

// StageStats accumulates one stage's counters. A nil *StageStats is a
// valid no-op sink.
type StageStats struct {
	name string

	mu        sync.Mutex
	attempts  uint64
	successes uint64
	retries   uint64
	failures  uint64
	timeouts  uint64
	hist      histogram
}

// record accounts one attempt.
func (st *StageStats) record(elapsed time.Duration, ok, timedOut bool) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.attempts++
	if ok {
		st.successes++
	}
	if timedOut {
		st.timeouts++
	}
	st.hist.observe(elapsed)
}

// Record is the exported form of record for callers accounting work that
// runs outside the pool.
func (st *StageStats) Record(elapsed time.Duration, ok bool) { st.record(elapsed, ok, false) }

// retried accounts one retry decision.
func (st *StageStats) retried() {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.retries++
	st.mu.Unlock()
}

// failed accounts one item exhausting its attempts.
func (st *StageStats) failed() {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.failures++
	st.mu.Unlock()
}

func (st *StageStats) snapshot() StageSnapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	snap := StageSnapshot{
		Stage:     st.name,
		Attempts:  st.attempts,
		Successes: st.successes,
		Retries:   st.retries,
		Failures:  st.failures,
		Timeouts:  st.timeouts,
		Count:     st.hist.total,
		Min:       st.hist.min,
		Max:       st.hist.max,
		P50:       st.hist.quantile(0.50),
		P90:       st.hist.quantile(0.90),
		P99:       st.hist.quantile(0.99),
	}
	if st.hist.total > 0 {
		snap.Mean = st.hist.sum / time.Duration(st.hist.total)
	}
	return snap
}

// StageSnapshot is one stage's frozen counters. The JSON field names are
// the fmserve /metrics contract; durations marshal as nanoseconds.
type StageSnapshot struct {
	Stage     string `json:"stage"`
	Attempts  uint64 `json:"attempts"`
	Successes uint64 `json:"successes"`
	Retries   uint64 `json:"retries"`
	Failures  uint64 `json:"failures"`
	Timeouts  uint64 `json:"timeouts"`

	// Count is the number of latency samples; Min/Mean/Max are exact and
	// P50/P90/P99 are histogram upper bounds.
	Count uint64        `json:"count"`
	Min   time.Duration `json:"min_ns"`
	Mean  time.Duration `json:"mean_ns"`
	Max   time.Duration `json:"max_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
}

// Snapshot is a frozen view of a Stats registry.
type Snapshot struct {
	Stages []StageSnapshot `json:"stages"`
}

// Stage returns the named stage's snapshot (zero value if absent).
func (s Snapshot) Stage(name string) StageSnapshot {
	for _, st := range s.Stages {
		if st.Stage == name {
			return st
		}
	}
	return StageSnapshot{}
}

// Render prints the per-stage timing table fmrepro and fmscan show after
// a run.
func (s Snapshot) Render() string {
	if len(s.Stages) == 0 {
		return "engine stats: no recorded stages\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %9s %9s %8s %8s %9s %10s %10s %10s %10s\n",
		"stage", "attempts", "ok", "retries", "fails", "timeouts", "mean", "p50", "p90", "p99")
	for _, st := range s.Stages {
		fmt.Fprintf(&b, "%-14s %9d %9d %8d %8d %9d %10s %10s %10s %10s\n",
			st.Stage, st.Attempts, st.Successes, st.Retries, st.Failures, st.Timeouts,
			roundDur(st.Mean), roundDur(st.P50), roundDur(st.P90), roundDur(st.P99))
	}
	return b.String()
}

// roundDur trims sub-microsecond noise for table display.
func roundDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(100 * time.Nanosecond).String()
	}
}
