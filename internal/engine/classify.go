package engine

import (
	"context"
	"errors"
	"sync"
)

// This file adds the failure-handling layer the fault-injection work
// needs: error classification (retryable vs fatal) consumed by runItem's
// retry loop, the per-target circuit breaker stages use to stop burning
// retries on persistently dead targets, and the attempt-number context
// plumbing that lets a deterministic fault injector (internal/netsim)
// key its decisions on which retry attempt is dialing.

// Class partitions item errors for the retry loop.
type Class int

const (
	// ClassRetryable errors may succeed on a later attempt: timeouts,
	// resets, refused connections, flapping links. Unknown errors default
	// here — the engine has always retried everything, and transport
	// errors are the common case in pooled stages.
	ClassRetryable Class = iota
	// ClassFatal errors cannot be cured by retrying: the caller cancelled,
	// or the stage marked the error fatal (parse failures, validation
	// errors, an open circuit breaker).
	ClassFatal
)

// fatalError marks an error as not worth retrying.
type fatalError struct{ err error }

func (e *fatalError) Error() string { return e.err.Error() }
func (e *fatalError) Unwrap() error { return e.err }

// Fatal marks err as fatal: runItem stops retrying immediately when a
// stage function returns it. A nil err stays nil.
func Fatal(err error) error {
	if err == nil {
		return nil
	}
	return &fatalError{err: err}
}

// ErrCircuitOpen is returned (wrapped via Fatal) by stages whose circuit
// breaker has opened for a target.
var ErrCircuitOpen = errors.New("engine: circuit breaker open")

// Classify places err in a retry class.
func Classify(err error) Class {
	switch {
	case err == nil:
		return ClassRetryable
	case errors.Is(err, context.Canceled):
		return ClassFatal
	case errors.Is(err, ErrCircuitOpen):
		return ClassFatal
	default:
		var fe *fatalError
		if errors.As(err, &fe) {
			return ClassFatal
		}
		return ClassRetryable
	}
}

// IsRetryable reports whether a later attempt could plausibly succeed.
func IsRetryable(err error) bool { return Classify(err) == ClassRetryable }

// Breaker is a per-target circuit breaker: after Limit consecutive
// failures recorded against a key, the circuit opens and Allow returns
// false until a success resets it. Stages consult it inside their item
// functions (the engine cannot derive a target key from an opaque work
// item) and typically key it by the item's own identity — one URL, one
// candidate address — so all state transitions for a key happen inside
// one worker's sequential retry loop and results stay byte-identical at
// any worker count.
type Breaker struct {
	limit int

	mu    sync.Mutex
	fails map[string]int
}

// DefaultBreakerLimit opens a circuit after two consecutive failures.
const DefaultBreakerLimit = 2

// NewBreaker returns a breaker opening after limit consecutive failures
// per key (limit < 1 means DefaultBreakerLimit).
func NewBreaker(limit int) *Breaker {
	if limit < 1 {
		limit = DefaultBreakerLimit
	}
	return &Breaker{limit: limit, fails: make(map[string]int)}
}

// Allow reports whether the key's circuit is closed. A nil breaker
// allows everything.
func (b *Breaker) Allow(key string) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fails[key] < b.limit
}

// Record accounts one outcome for key: a nil err closes the circuit, a
// non-nil err moves it one failure closer to open.
func (b *Breaker) Record(key string, err error) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		delete(b.fails, key)
		return
	}
	b.fails[key]++
}

// attemptKey carries the retry attempt number through the context.
type attemptKey struct{}

// WithAttempt returns a context annotated with the 1-based attempt
// number. The engine's retry loop stamps every attempt whose number
// AttemptFromContext would otherwise misreport: every retry, and a first
// attempt whose context already carries an outer stage's number.
// Transports (the simulated network's fault injector) read it back so
// per-attempt fault decisions depend only on (key, attempt), never on
// scheduling.
func WithAttempt(ctx context.Context, attempt int) context.Context {
	return context.WithValue(ctx, attemptKey{}, attempt)
}

// hasAttempt reports whether ctx carries an attempt number.
func hasAttempt(ctx context.Context) bool {
	_, ok := ctx.Value(attemptKey{}).(int)
	return ok
}

// AttemptFromContext returns the attempt number stamped by WithAttempt,
// or 1 when the context carries none (work running outside the engine's
// retry loop counts as its only attempt).
func AttemptFromContext(ctx context.Context) int {
	if n, ok := ctx.Value(attemptKey{}).(int); ok && n > 0 {
		return n
	}
	return 1
}
