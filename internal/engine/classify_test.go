package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	base := errors.New("boom")
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, ClassRetryable},
		{"plain", base, ClassRetryable},
		{"wrapped plain", fmt.Errorf("stage: %w", base), ClassRetryable},
		{"deadline", context.DeadlineExceeded, ClassRetryable},
		{"canceled", context.Canceled, ClassFatal},
		{"wrapped canceled", fmt.Errorf("stage: %w", context.Canceled), ClassFatal},
		{"fatal", Fatal(base), ClassFatal},
		{"wrapped fatal", fmt.Errorf("stage: %w", Fatal(base)), ClassFatal},
		{"circuit open", fmt.Errorf("x: %w", ErrCircuitOpen), ClassFatal},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
	if Fatal(nil) != nil {
		t.Error("Fatal(nil) must stay nil")
	}
	if !errors.Is(Fatal(base), base) {
		t.Error("Fatal must unwrap to its cause")
	}
}

func TestFatalErrorStopsRetries(t *testing.T) {
	cfg := NewConfig(WithRetryPolicy(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Nanosecond}))
	cfg.Sleep = func(context.Context, time.Duration) {}
	calls := 0
	results := MapResults(context.Background(), cfg, "t", []int{0}, func(ctx context.Context, _ int) (int, error) {
		calls++
		return 0, Fatal(errors.New("unparseable"))
	})
	if calls != 1 {
		t.Fatalf("fatal error consumed %d attempts, want 1", calls)
	}
	if results[0].Err == nil || results[0].Attempts != 1 {
		t.Fatalf("result = %+v, want 1 failed attempt", results[0])
	}

	// A retryable error still burns every attempt.
	calls = 0
	MapResults(context.Background(), cfg, "t", []int{0}, func(ctx context.Context, _ int) (int, error) {
		calls++
		return 0, errors.New("transient")
	})
	if calls != 5 {
		t.Fatalf("retryable error consumed %d attempts, want 5", calls)
	}
}

func TestBreaker(t *testing.T) {
	b := NewBreaker(2)
	if !b.Allow("a") {
		t.Fatal("fresh key should be allowed")
	}
	b.Record("a", errors.New("x"))
	if !b.Allow("a") {
		t.Fatal("one failure under limit 2 should still allow")
	}
	b.Record("a", errors.New("x"))
	if b.Allow("a") {
		t.Fatal("two consecutive failures should open the circuit")
	}
	// An unrelated key is unaffected; success closes the circuit.
	if !b.Allow("b") {
		t.Fatal("keys must be independent")
	}
	b.Record("a", nil)
	if !b.Allow("a") {
		t.Fatal("success must reset the circuit")
	}
}

func TestBreakerNilSafe(t *testing.T) {
	var b *Breaker
	if !b.Allow("x") {
		t.Fatal("nil breaker must allow everything")
	}
	b.Record("x", errors.New("x")) // must not panic
	if !b.Allow("x") {
		t.Fatal("nil breaker never opens")
	}
}

func TestBreakerDefaultLimit(t *testing.T) {
	b := NewBreaker(0)
	for i := 0; i < DefaultBreakerLimit; i++ {
		if !b.Allow("k") {
			t.Fatalf("opened after %d failures, want %d", i, DefaultBreakerLimit)
		}
		b.Record("k", errors.New("x"))
	}
	if b.Allow("k") {
		t.Fatal("should open at the default limit")
	}
}

func TestWithAttemptThreading(t *testing.T) {
	if got := AttemptFromContext(context.Background()); got != 1 {
		t.Fatalf("bare context attempt = %d, want 1", got)
	}
	ctx := WithAttempt(context.Background(), 3)
	if got := AttemptFromContext(ctx); got != 3 {
		t.Fatalf("attempt = %d, want 3", got)
	}

	// runItem stamps each attempt's context with its 1-based number.
	cfg := NewConfig(WithRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Nanosecond}))
	cfg.Sleep = func(context.Context, time.Duration) {}
	var seen []int
	MapResults(context.Background(), cfg, "t", []int{0}, func(ctx context.Context, _ int) (int, error) {
		seen = append(seen, AttemptFromContext(ctx))
		if len(seen) < 3 {
			return 0, errors.New("again")
		}
		return 0, nil
	})
	if len(seen) != 3 || seen[0] != 1 || seen[1] != 2 || seen[2] != 3 {
		t.Fatalf("attempts seen = %v, want [1 2 3]", seen)
	}

	// A stage nested inside attempt 2 of an outer item numbers its own
	// attempts: its first attempt is 1, not the outer 2.
	var outer, inner []int
	MapResults(context.Background(), cfg, "outer", []int{0}, func(ctx context.Context, _ int) (int, error) {
		outer = append(outer, AttemptFromContext(ctx))
		if len(outer) < 2 {
			return 0, errors.New("again")
		}
		MapResults(ctx, Config{}, "inner", []int{0}, func(ctx context.Context, _ int) (int, error) {
			inner = append(inner, AttemptFromContext(ctx))
			return 0, nil
		})
		return 0, nil
	})
	if len(outer) != 2 || outer[1] != 2 || len(inner) != 1 || inner[0] != 1 {
		t.Fatalf("outer attempts = %v, inner attempts = %v, want [1 2] and [1]", outer, inner)
	}
}
