// Package engine is the shared concurrency substrate for the pipelines:
// a bounded worker pool with per-item timeout, retry with exponential
// backoff and deterministic jitter, clean context-cancellation draining,
// and an observability layer (per-stage counters, latency histograms, and
// structured progress events).
//
// Every stage that fans out over a slice of work items — banner probes,
// fingerprint validation, geo/AS resolution, dual-vantage URL tests,
// per-country characterization — runs through Map or ForEach here instead
// of hand-rolling goroutines. Results come back in input order, so
// parallel stages stay deterministic and golden outputs do not drift.
package engine

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultWorkers is the pool size used when a Config does not set one.
const DefaultWorkers = 32

// RetryPolicy bounds per-item retries. The zero value means "one attempt,
// no retry".
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per item (first attempt
	// included). Values < 1 mean 1.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles each
	// further attempt. 0 means 10ms when MaxAttempts > 1.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. 0 means 2s.
	MaxDelay time.Duration
	// Jitter is the fraction of each backoff randomized away (0..1). The
	// jitter source is a hash of (stage, item, attempt), so reruns back
	// off identically.
	Jitter float64
}

// DefaultRetryPolicy retries twice with a short exponential backoff —
// suitable for transient network refusals.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 2 * time.Second, Jitter: 0.2}
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoff returns the delay before attempt+1 (attempt counts from 1).
func (p RetryPolicy) backoff(stage string, item, attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = 2 * time.Second
	}
	d := time.Duration(float64(base) * math.Pow(2, float64(attempt-1)))
	if d > maxd || d <= 0 {
		d = maxd
	}
	if p.Jitter > 0 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s/%d/%d", stage, item, attempt)
		frac := float64(h.Sum64()%1000) / 1000.0
		d -= time.Duration(p.Jitter * frac * float64(d))
	}
	return d
}

// Config carries the shared execution knobs every pooled stage consumes.
// The zero value is usable: DefaultWorkers workers, no per-item timeout,
// no retries, no observability sinks.
type Config struct {
	// Workers bounds concurrent items (<= 0 means DefaultWorkers).
	Workers int
	// Timeout bounds each attempt (0 means no engine-imposed timeout;
	// stages may still enforce their own).
	Timeout time.Duration
	// Retry is the per-item retry policy.
	Retry RetryPolicy
	// Observer receives structured progress events (nil for none).
	Observer Observer
	// Stats accumulates per-stage counters and latencies (nil for none).
	Stats *Stats
	// Sleep waits out retry backoffs; nil sleeps real time (ctx-aware).
	// A world's engine sleeps on the world's virtual clock.
	Sleep func(ctx context.Context, d time.Duration)
	// Breaker is the optional per-target circuit breaker stages consult
	// (nil for none; a chaos world's engine has one). See NewBreaker.
	Breaker *Breaker
}

// Option mutates a Config — the functional-options surface shared by
// scanner.New and filtermap.NewWorld.
type Option func(*Config)

// WithWorkers bounds pool concurrency.
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithTimeout bounds each attempt.
func WithTimeout(d time.Duration) Option { return func(c *Config) { c.Timeout = d } }

// WithRetryPolicy sets the per-item retry policy.
func WithRetryPolicy(p RetryPolicy) Option { return func(c *Config) { c.Retry = p } }

// WithObserver installs a progress-event sink.
func WithObserver(o Observer) Option { return func(c *Config) { c.Observer = o } }

// WithStats installs a metrics registry.
func WithStats(s *Stats) Option { return func(c *Config) { c.Stats = s } }

// NewConfig builds a Config from options.
func NewConfig(opts ...Option) Config {
	var c Config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// With returns a copy of c with opts applied.
func (c Config) With(opts ...Option) Config {
	for _, o := range opts {
		o(&c)
	}
	return c
}

// WorkersOr resolves the worker count against a stage default.
func (c Config) WorkersOr(def int) int {
	if c.Workers > 0 {
		return c.Workers
	}
	if def > 0 {
		return def
	}
	return DefaultWorkers
}

// TimeoutOr resolves the per-attempt timeout against a stage default.
func (c Config) TimeoutOr(def time.Duration) time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return def
}

func (c Config) sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	if c.Sleep != nil {
		c.Sleep(ctx, d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Result is one item's outcome from MapResults.
type Result[R any] struct {
	// Value is valid when Err is nil.
	Value R
	// Err is the item's final error (after retries), if any.
	Err error
	// Attempts is how many tries the item consumed.
	Attempts int
}

// ItemError wraps an item's final failure with its position and attempt
// count, so callers can report which work item died and how hard the
// engine tried.
type ItemError struct {
	Stage    string
	Item     int
	Attempts int
	Err      error
}

// Error implements error.
func (e *ItemError) Error() string {
	return fmt.Sprintf("engine: stage %s item %d failed after %d attempt(s): %v", e.Stage, e.Item, e.Attempts, e.Err)
}

// Unwrap exposes the cause.
func (e *ItemError) Unwrap() error { return e.Err }

// Map runs fn over every item through the bounded pool and returns the
// results in input order. The first failing item (lowest index) aborts the
// call: remaining work is cancelled, in-flight workers drain, and the
// item's error comes back wrapped in *ItemError.
func Map[T, R any](ctx context.Context, cfg Config, stage string, items []T, fn func(context.Context, T) (R, error)) ([]R, error) {
	results := mapResults(ctx, cfg, stage, items, fn, true)
	// Prefer the lowest-indexed genuine failure: items after it may carry
	// only the cancellation it triggered.
	firstErr := -1
	for i, r := range results {
		if r.Err == nil {
			continue
		}
		if !errors.Is(r.Err, context.Canceled) {
			firstErr = i
			break
		}
		if firstErr < 0 {
			firstErr = i
		}
	}
	if firstErr >= 0 {
		r := results[firstErr]
		if errors.Is(r.Err, context.Canceled) && ctx.Err() != nil {
			// The caller cancelled the whole run; report that plainly.
			return nil, ctx.Err()
		}
		return nil, &ItemError{Stage: stage, Item: firstErr, Attempts: r.Attempts, Err: r.Err}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]R, len(items))
	for i, r := range results {
		out[i] = r.Value
	}
	return out, nil
}

// MapResults runs fn over every item and returns per-item outcomes in
// input order. Item failures do not cancel the rest of the pool — use
// this when one bad work item must not kill a full scan.
func MapResults[T, R any](ctx context.Context, cfg Config, stage string, items []T, fn func(context.Context, T) (R, error)) []Result[R] {
	return mapResults(ctx, cfg, stage, items, fn, false)
}

// ForEach is Map for side-effecting work with no per-item result.
func ForEach[T any](ctx context.Context, cfg Config, stage string, items []T, fn func(context.Context, T) error) error {
	_, err := Map(ctx, cfg, stage, items, func(ctx context.Context, item T) (struct{}, error) {
		return struct{}{}, fn(ctx, item)
	})
	return err
}

// mapResults is the pool core shared by Map/MapResults/ForEach. Workers
// claim the next unclaimed index from one shared counter, so handing an
// item over costs an atomic add rather than a channel exchange.
func mapResults[T, R any](ctx context.Context, cfg Config, stage string, items []T, fn func(context.Context, T) (R, error), failFast bool) []Result[R] {
	results := make([]Result[R], len(items))
	if len(items) == 0 {
		return results
	}
	workers := cfg.WorkersOr(0)
	if workers > len(items) {
		workers = len(items)
	}

	poolCtx := ctx
	var cancel context.CancelFunc
	if failFast {
		poolCtx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	run := stageRun[T, R]{
		cfg:        cfg,
		name:       stage,
		st:         cfg.Stats.stage(stage),
		fn:         fn,
		stampFirst: hasAttempt(poolCtx),
	}
	done := poolCtx.Done()

	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1) - 1)
				if idx >= len(items) {
					return
				}
				select {
				case <-done:
					// Drain cleanly: an item claimed after the pool is
					// done never starts; in-flight items finish.
					results[idx] = Result[R]{Err: context.Cause(poolCtx)}
					continue
				default:
				}
				results[idx] = run.item(poolCtx, idx, items[idx])
				if failFast && results[idx].Err != nil {
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// stageRun is what every worker of one mapResults call shares, resolved
// once per call rather than once per item.
type stageRun[T, R any] struct {
	cfg  Config
	name string
	st   *StageStats
	fn   func(context.Context, T) (R, error)
	// stampFirst stamps attempt 1 as well: the pool context already
	// carries an outer stage's attempt number, which this stage's items
	// must not inherit.
	stampFirst bool
}

// item executes one item's attempt/retry loop.
func (s *stageRun[T, R]) item(ctx context.Context, idx int, item T) Result[R] {
	var res Result[R]
	cfg, stage, st := &s.cfg, s.name, s.st
	attempts := cfg.Retry.attempts()
	for attempt := 1; attempt <= attempts; attempt++ {
		// The claim loop's receive on the pool's done channel is attempt
		// 1's cancellation check. ctx.Err would repeat it and lock the
		// pool context, which every worker shares.
		if attempt > 1 {
			if err := ctx.Err(); err != nil {
				res.Err = err
				return res
			}
		}
		res.Attempts = attempt
		cfg.observe(Event{Stage: stage, Kind: EventStart, Item: idx, Attempt: attempt})

		attemptCtx := ctx
		if attempt > 1 || s.stampFirst {
			attemptCtx = WithAttempt(ctx, attempt)
		}
		cancel := context.CancelFunc(func() {})
		if cfg.Timeout > 0 {
			attemptCtx, cancel = context.WithTimeout(attemptCtx, cfg.Timeout)
		}
		start := time.Now()
		v, err := s.fn(attemptCtx, item)
		elapsed := time.Since(start)
		cancel()

		timedOut := err != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil
		st.record(elapsed, err == nil, timedOut)

		if err == nil {
			res.Value = v
			res.Err = nil // a successful retry clears earlier attempts' errors
			cfg.observe(Event{Stage: stage, Kind: EventDone, Item: idx, Attempt: attempt, Elapsed: elapsed})
			return res
		}
		res.Err = err
		if !IsRetryable(err) {
			// Fatal errors (cancellation, parse failures, open circuit
			// breakers) cannot be cured by retrying; stop immediately.
			break
		}
		if attempt < attempts && ctx.Err() == nil {
			st.retried()
			cfg.observe(Event{Stage: stage, Kind: EventRetry, Item: idx, Attempt: attempt, Elapsed: elapsed, Err: err})
			cfg.sleep(ctx, cfg.Retry.backoff(stage, idx, attempt))
			continue
		}
		break
	}
	st.failed()
	cfg.observe(Event{Stage: stage, Kind: EventFail, Item: idx, Attempt: res.Attempts, Err: res.Err})
	return res
}
