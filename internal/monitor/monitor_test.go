package monitor

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"filtermap/internal/engine"
	"filtermap/internal/plan"
	"filtermap/internal/store"
	"filtermap/internal/world"
)

func TestBrokerPublishSubscribeResume(t *testing.T) {
	b := NewBroker(16)
	for i := 0; i < 3; i++ {
		b.Publish(Event{Type: EventChurn, Tick: i + 1})
	}
	if got := b.LastID(); got != 3 {
		t.Fatalf("LastID = %d, want 3", got)
	}

	replay, ch, cancel := b.Subscribe(1, 4)
	defer cancel()
	if len(replay) != 2 || replay[0].ID != 2 || replay[1].ID != 3 {
		t.Fatalf("replay = %+v, want events 2,3", replay)
	}
	live := b.Publish(Event{Type: EventSkip})
	select {
	case got := <-ch:
		if got.ID != live.ID {
			t.Fatalf("live event ID = %d, want %d", got.ID, live.ID)
		}
	case <-time.After(time.Second):
		t.Fatal("live event never delivered")
	}
	if n := b.Subscribers(); n != 1 {
		t.Fatalf("Subscribers = %d, want 1", n)
	}
	cancel()
	if n := b.Subscribers(); n != 0 {
		t.Fatalf("Subscribers after cancel = %d, want 0", n)
	}
}

func TestBrokerSlowSubscriberDropped(t *testing.T) {
	b := NewBroker(16)
	_, ch, cancel := b.Subscribe(0, 1)
	defer cancel()
	b.Publish(Event{})
	b.Publish(Event{}) // buffer full: subscriber cut loose
	var closed bool
	for range ch {
	}
	closed = true
	if !closed {
		t.Fatal("channel never closed")
	}
	if _, dropped := b.Fanout(); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if n := b.Subscribers(); n != 0 {
		t.Fatalf("Subscribers = %d, want 0", n)
	}
}

func TestBrokerRetention(t *testing.T) {
	b := NewBroker(4)
	for i := 0; i < 10; i++ {
		b.Publish(Event{})
	}
	got := b.Since(0)
	if len(got) != 4 || got[0].ID != 7 || got[3].ID != 10 {
		t.Fatalf("Since(0) after overflow = %d events starting %d, want 4 starting 7", len(got), got[0].ID)
	}
}

func TestChurnDriverDeterministic(t *testing.T) {
	mkOps := func() []ChurnOp {
		w, err := world.Build(world.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		d := newChurnDriver(99)
		var ops []ChurnOp
		for i := 0; i < 6; i++ {
			batch, err := d.apply(w)
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			ops = append(ops, batch...)
		}
		return ops
	}
	a, b := mkOps(), mkOps()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("op counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	for _, op := range a {
		if op.Op == "install" && !strings.HasPrefix(op.IP, "100.") {
			t.Fatalf("install outside the churn block: %+v", op)
		}
	}
}

// runMonitor runs a fresh identify-only monitor for n ticks and returns
// the rendered event log.
func runMonitor(t *testing.T, seed uint64, workers, n int) (string, Counters) {
	t.Helper()
	st, err := store.Open("")
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	m, err := New(Options{
		Seed: seed,
		Tick: 24 * time.Hour,
		Plans: []Plan{
			{Name: "identify", Kind: plan.StoreIdentify, Every: 24 * time.Hour},
		},
		Engine: []engine.Option{engine.WithWorkers(workers)},
	}, st)
	if err != nil {
		t.Fatalf("new monitor: %v", err)
	}
	defer m.Close()
	events, err := m.RunTicks(context.Background(), n)
	if err != nil {
		t.Fatalf("run ticks: %v", err)
	}
	return RenderLog(events), m.Counters()
}

func TestMonitorDeterministicAcrossWorkers(t *testing.T) {
	log1, c1 := runMonitor(t, 7, 1, 3)
	log8, c8 := runMonitor(t, 7, 8, 3)
	if log1 != log8 {
		t.Fatalf("event log differs between 1 and 8 workers:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", log1, log8)
	}
	if c1 != c8 {
		t.Fatalf("counters differ: %+v vs %+v", c1, c8)
	}
	if c1.SnapshotsAppended == 0 {
		t.Fatal("no snapshots appended")
	}
	if !strings.Contains(log1, "snapshot identify") {
		t.Fatalf("log missing identify snapshots:\n%s", log1)
	}
}

func TestMonitorDiffsAndDedupe(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	m, err := New(Options{
		Seed:    3,
		NoChurn: true,
		Plans:   []Plan{{Kind: plan.StoreIdentify, Every: 24 * time.Hour}},
	}, st)
	if err != nil {
		t.Fatalf("new monitor: %v", err)
	}
	defer m.Close()
	events, err := m.RunTicks(context.Background(), 2)
	if err != nil {
		t.Fatalf("run ticks: %v", err)
	}
	// A frozen world yields one baseline append and then dedupes.
	c := m.Counters()
	if c.SnapshotsAppended != 1 || c.SnapshotsDeduped != 1 {
		t.Fatalf("counters = %+v, want 1 appended + 1 deduped", c)
	}
	for _, e := range events {
		if e.Type == EventSnapshot && e.Deduped && e.Diff != nil {
			t.Fatalf("deduped snapshot carries a diff: %+v", e)
		}
	}

	// With churn, the second snapshot must carry an installs diff.
	st2, _ := store.Open("")
	m2, err := New(Options{
		Seed:  3,
		Plans: []Plan{{Kind: plan.StoreIdentify, Every: 24 * time.Hour}},
	}, st2)
	if err != nil {
		t.Fatalf("new monitor: %v", err)
	}
	defer m2.Close()
	events2, err := m2.RunTicks(context.Background(), 2)
	if err != nil {
		t.Fatalf("run ticks: %v", err)
	}
	var sawDiff bool
	for _, e := range events2 {
		if e.Type == EventSnapshot && e.Diff != nil {
			if _, ok := e.Diff.Section.(*plan.InstallDiff); ok {
				sawDiff = true
			}
		}
	}
	if !sawDiff {
		t.Fatalf("churned run produced no installs diff:\n%s", RenderLog(events2))
	}
}

func TestMonitorOverlapSuppression(t *testing.T) {
	st, _ := store.Open("")
	m, err := New(Options{
		NoChurn: true,
		Tick:    24 * time.Hour,
		// Due every 6h but executed at 24h ticks: each tick runs once
		// and suppresses the three overlapped firings.
		Plans: []Plan{{Kind: plan.StoreIdentify, Every: 6 * time.Hour}},
	}, st)
	if err != nil {
		t.Fatalf("new monitor: %v", err)
	}
	defer m.Close()
	events, err := m.RunTicks(context.Background(), 2)
	if err != nil {
		t.Fatalf("run ticks: %v", err)
	}
	c := m.Counters()
	if c.PlanRuns != 2 {
		t.Fatalf("plan runs = %d, want 2", c.PlanRuns)
	}
	if c.SkippedOverlap == 0 {
		t.Fatal("no overlapped firings suppressed")
	}
	var skips int
	for _, e := range events {
		if e.Type == EventSkip {
			skips++
		}
	}
	if uint64(skips) != c.SkippedOverlap {
		t.Fatalf("skip events %d != counter %d", skips, c.SkippedOverlap)
	}
}

func TestMonitorRejectsBadPlans(t *testing.T) {
	st, _ := store.Open("")
	if _, err := New(Options{Plans: []Plan{{Kind: "bogus", Every: time.Hour}}}, st); err == nil {
		t.Fatal("unknown plan kind accepted")
	}
	if _, err := New(Options{Plans: []Plan{{Kind: plan.StoreIdentify}}}, st); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := New(Options{Plans: []Plan{{Kind: plan.StoreIdentify, Every: time.Hour, JitterPct: 90}}}, st); err == nil {
		t.Fatal("out-of-range jitter accepted")
	}
	if _, err := New(Options{}, nil); err == nil {
		t.Fatal("nil store accepted")
	}
}

func BenchmarkMonitorTick(b *testing.B) {
	st, err := store.Open("")
	if err != nil {
		b.Fatalf("open store: %v", err)
	}
	m, err := New(Options{
		Seed:  1,
		Plans: []Plan{{Kind: plan.StoreIdentify, Every: 24 * time.Hour}},
	}, st)
	if err != nil {
		b.Fatalf("new monitor: %v", err)
	}
	defer m.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.RunTicks(context.Background(), 1); err != nil {
			b.Fatalf("tick: %v", err)
		}
	}
}

func BenchmarkWatchFanout(b *testing.B) {
	const subscribers = 100
	brk := NewBroker(DefaultRetain)
	var wg sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		_, ch, cancel := brk.Subscribe(0, b.N+1)
		defer cancel()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range ch {
			}
		}()
	}
	ev := Event{Type: EventSnapshot, Kind: plan.StoreIdentify, Plan: "identify"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		brk.Publish(ev)
	}
	b.StopTimer()
	if n := brk.Subscribers(); n != subscribers {
		b.Fatalf("dropped %d subscribers during fanout", subscribers-n)
	}
}
