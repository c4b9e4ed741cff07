package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// noSleep makes retry backoffs free in tests.
func noSleep(context.Context, time.Duration) {}

func TestMapDeterministicOrdering(t *testing.T) {
	const n = 200
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	cfg := NewConfig(WithWorkers(8))
	out, err := Map(context.Background(), cfg, "order", items, func(_ context.Context, v int) (int, error) {
		// Vary completion order: later items finish sooner.
		time.Sleep(time.Duration((v%7)*50) * time.Microsecond)
		return v * 2, nil
	})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if len(out) != n {
		t.Fatalf("len = %d, want %d", len(out), n)
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d, want %d (ordering not deterministic)", i, v, i*2)
		}
	}
}

func TestMapCancellationMidPool(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	var started atomic.Int64
	release := make(chan struct{})
	cfg := NewConfig(WithWorkers(4))
	done := make(chan error, 1)
	go func() {
		_, err := Map(ctx, cfg, "cancel", items, func(ctx context.Context, v int) (int, error) {
			started.Add(1)
			select {
			case <-release:
				return v, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		})
		done <- err
	}()

	// Let a few items get in flight, then cancel the run.
	for started.Load() < 4 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pool did not drain after cancellation")
	}
	// Only the in-flight items ran; the rest were never dispatched.
	if got := started.Load(); got >= 100 {
		t.Fatalf("started %d items despite cancellation", got)
	}
	close(release)
}

func TestRetryThenSucceed(t *testing.T) {
	stats := NewStats()
	var mu sync.Mutex
	tries := map[int]int{}
	cfg := NewConfig(
		WithWorkers(2),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond}),
		WithStats(stats),
	)
	cfg.Sleep = noSleep
	items := []int{0, 1, 2}
	out, err := Map(context.Background(), cfg, "flaky", items, func(_ context.Context, v int) (string, error) {
		mu.Lock()
		tries[v]++
		n := tries[v]
		mu.Unlock()
		if v == 1 && n < 3 {
			return "", fmt.Errorf("transient %d", n)
		}
		return fmt.Sprintf("ok-%d", v), nil
	})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if out[1] != "ok-1" {
		t.Fatalf("out[1] = %q", out[1])
	}
	snap := stats.Snapshot().Stage("flaky")
	if snap.Attempts != 5 {
		t.Fatalf("attempts = %d, want 5 (3 items + 2 retries)", snap.Attempts)
	}
	if snap.Retries != 2 {
		t.Fatalf("retries = %d, want 2", snap.Retries)
	}
	if snap.Failures != 0 {
		t.Fatalf("failures = %d, want 0", snap.Failures)
	}
}

func TestRetryExhaustion(t *testing.T) {
	stats := NewStats()
	var events []Event
	var mu sync.Mutex
	cfg := NewConfig(
		WithWorkers(1),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond}),
		WithStats(stats),
		WithObserver(ObserverFunc(func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		})),
	)
	cfg.Sleep = noSleep
	boom := errors.New("boom")
	_, err := Map(context.Background(), cfg, "dead", []int{7}, func(context.Context, int) (int, error) {
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	var ie *ItemError
	if !errors.As(err, &ie) {
		t.Fatalf("err %T is not *ItemError", err)
	}
	if ie.Attempts != 3 || ie.Item != 0 || ie.Stage != "dead" {
		t.Fatalf("item error = %+v", ie)
	}
	snap := stats.Snapshot().Stage("dead")
	if snap.Attempts != 3 || snap.Retries != 2 || snap.Failures != 1 || snap.Successes != 0 {
		t.Fatalf("stats = %+v", snap)
	}
	kinds := map[EventKind]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	if kinds[EventStart] != 3 || kinds[EventRetry] != 2 || kinds[EventFail] != 1 || kinds[EventDone] != 0 {
		t.Fatalf("event kinds = %v", kinds)
	}
}

func TestMapResultsContinuesPastFailures(t *testing.T) {
	items := []int{0, 1, 2, 3, 4}
	cfg := NewConfig(WithWorkers(3))
	results := MapResults(context.Background(), cfg, "partial", items, func(_ context.Context, v int) (int, error) {
		if v%2 == 1 {
			return 0, fmt.Errorf("odd %d", v)
		}
		return v * 10, nil
	})
	for i, r := range results {
		if i%2 == 1 {
			if r.Err == nil {
				t.Fatalf("item %d should have failed", i)
			}
			continue
		}
		if r.Err != nil || r.Value != i*10 {
			t.Fatalf("item %d = %+v", i, r)
		}
	}
}

func TestForEachTimeoutClassification(t *testing.T) {
	stats := NewStats()
	cfg := NewConfig(WithWorkers(1), WithTimeout(5*time.Millisecond), WithStats(stats))
	err := ForEach(context.Background(), cfg, "slow", []int{0}, func(ctx context.Context, _ int) error {
		<-ctx.Done()
		return ctx.Err()
	})
	if err == nil {
		t.Fatal("expected timeout error")
	}
	snap := stats.Snapshot().Stage("slow")
	if snap.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", snap.Timeouts)
	}
}

func TestEmptyInput(t *testing.T) {
	out, err := Map(context.Background(), Config{}, "empty", nil, func(_ context.Context, v int) (int, error) {
		return v, nil
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty map = %v, %v", out, err)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Jitter: 0.5}
	for attempt := 1; attempt <= 4; attempt++ {
		a := p.backoff("stage", 3, attempt)
		b := p.backoff("stage", 3, attempt)
		if a != b {
			t.Fatalf("backoff not deterministic: %v vs %v", a, b)
		}
		if a <= 0 || a > 50*time.Millisecond {
			t.Fatalf("backoff %v out of bounds", a)
		}
	}
	if p.backoff("s", 1, 1) == p.backoff("s", 2, 1) {
		t.Fatal("jitter should differ across items")
	}
}

func TestStatsSnapshotAndRender(t *testing.T) {
	stats := NewStats()
	st := stats.Stage("probe")
	for i := 0; i < 100; i++ {
		st.Record(time.Duration(i+1)*time.Millisecond, true)
	}
	snap := stats.Snapshot()
	ps := snap.Stage("probe")
	if ps.Attempts != 100 || ps.Count != 100 {
		t.Fatalf("snapshot = %+v", ps)
	}
	if ps.Min != time.Millisecond || ps.Max != 100*time.Millisecond {
		t.Fatalf("min/max = %v/%v", ps.Min, ps.Max)
	}
	if ps.P50 < 50*time.Millisecond || ps.P50 > 128*time.Millisecond {
		t.Fatalf("p50 = %v outside [50ms, 128ms]", ps.P50)
	}
	if ps.P99 < ps.P50 {
		t.Fatalf("p99 %v < p50 %v", ps.P99, ps.P50)
	}
	table := snap.Render()
	if !strings.Contains(table, "probe") || !strings.Contains(table, "attempts") {
		t.Fatalf("render = %q", table)
	}
	if nilTable := (*Stats)(nil).Snapshot().Render(); !strings.Contains(nilTable, "no recorded stages") {
		t.Fatalf("nil render = %q", nilTable)
	}
}

func TestNilStatsAndObserverAreSafe(t *testing.T) {
	cfg := Config{Workers: 2, Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond}}
	cfg.Sleep = noSleep
	err := ForEach(context.Background(), cfg, "nil-sinks", []int{1, 2, 3}, func(context.Context, int) error {
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConfigOptionHelpers(t *testing.T) {
	base := NewConfig(WithWorkers(4), WithTimeout(time.Second))
	if base.WorkersOr(0) != 4 || base.TimeoutOr(0) != time.Second {
		t.Fatalf("config = %+v", base)
	}
	derived := base.With(WithWorkers(9))
	if derived.Workers != 9 || base.Workers != 4 {
		t.Fatal("With must copy, not mutate")
	}
	var zero Config
	if zero.WorkersOr(0) != DefaultWorkers || zero.WorkersOr(7) != 7 {
		t.Fatal("worker defaults wrong")
	}
}

// TestZeroAllocEngineItem pins the per-item cost of the pool at zero
// allocations: with stats attached and no timeout, doubling the items
// at a fixed worker count must not add a single allocation.
func TestZeroAllocEngineItem(t *testing.T) {
	cfg := NewConfig(WithWorkers(4), WithStats(NewStats()))
	allocs := func(n int) float64 {
		items := make([]int, n)
		return testing.AllocsPerRun(50, func() {
			if err := ForEach(context.Background(), cfg, "noop", items, func(context.Context, int) error {
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2048), allocs(4096)
	if large != small {
		t.Fatalf("ForEach allocates %v over 2048 items and %v over 4096: want no per-item allocation", small, large)
	}
}
