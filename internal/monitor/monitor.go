package monitor

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"filtermap/internal/engine"
	"filtermap/internal/plan"
	"filtermap/internal/store"
	"filtermap/internal/world"
)

// Plan is one recurring scan.
type Plan struct {
	// Name labels the plan in events (defaults to Kind).
	Name string
	// Kind selects the pipeline by the snapshot kind it appends: any
	// store kind in the internal/plan registry (plan.StoreIdentify, ...).
	Kind string
	// Every is the virtual re-run period.
	Every time.Duration
	// JitterPct spreads firings by up to this percentage of Every,
	// deterministically per (seed, plan, firing index) — the scheduler
	// analog of the paper's repeated-measurement staggering, and it keeps
	// plans from synchronizing into thundering herds.
	JitterPct int
	// Rounds and Budget cap discovery crawls (0 = discovery defaults).
	Rounds int
	Budget int
}

// DefaultPlans is the standing scan rotation: identify daily, the
// mechanism survey every other day, a discovery crawl twice a week.
func DefaultPlans() []Plan {
	return []Plan{
		{Name: "identify", Kind: plan.StoreIdentify, Every: 24 * time.Hour},
		{Name: "mechanisms", Kind: plan.StoreMechanisms, Every: 48 * time.Hour, JitterPct: 10},
		{Name: "discovery", Kind: plan.StoreDiscovery, Every: 96 * time.Hour, JitterPct: 10, Rounds: 2, Budget: 16},
	}
}

// DefaultTick is the virtual time between scheduler wake-ups.
const DefaultTick = 24 * time.Hour

// Options configures a Monitor.
type Options struct {
	// Seed drives the churn script and plan jitter.
	Seed uint64
	// Tick is the virtual duration of one scheduler tick (default 24h).
	Tick time.Duration
	// Plans is the scan rotation (default DefaultPlans). A plan switches
	// on the world features its kind needs (a mechanisms plan forces
	// World.Mechanisms on).
	Plans []Plan
	// World configures the monitored world. The monitor owns a dedicated
	// world built from these options — churn mutates it between ticks,
	// which a world shared with request pipelines could not tolerate.
	World world.Options
	// Engine passes execution knobs (workers, stats, observers) to the
	// world build.
	Engine []engine.Option
	// NoChurn freezes the landscape: the scheduler still re-scans, every
	// append dedupes, and the event stream shows a steady world.
	NoChurn bool
	// Retain bounds the broker's replay tail (default DefaultRetain).
	// Ignored when Broker is set.
	Retain int
	// Broker, if non-nil, receives the event stream (fmserve passes its
	// own so /v1/watch sees monitor events). Nil builds a private one.
	Broker *Broker
}

// Counters is a point-in-time snapshot of the scheduler counters.
type Counters struct {
	Ticks             uint64 `json:"ticks"`
	PlanRuns          uint64 `json:"plan_runs"`
	SkippedOverlap    uint64 `json:"skipped_overlap"`
	SnapshotsAppended uint64 `json:"snapshots_appended"`
	SnapshotsDeduped  uint64 `json:"snapshots_deduped"`
	ChurnOps          uint64 `json:"churn_ops"`
}

// planState tracks one plan's schedule position.
type planState struct {
	plan  Plan
	next  time.Time // next due firing (virtual)
	fires int       // firings scheduled so far (jitter index)
}

// Monitor is the continuous-measurement loop. Construct with New, drive
// with RunTicks, observe through the Broker. Not safe for concurrent
// RunTicks calls — the world is single-writer; RunTicks serializes
// itself and callers can TryRunTicks to detect overlap.
type Monitor struct {
	opts  Options
	w     *world.World
	st    *store.Store
	diff  *plan.DiffEngine
	brk   *Broker
	churn *churnDriver
	cfg   string // store config hash of the monitored world's options

	runMu  sync.Mutex
	states []planState // lazily initialized on first run, under runMu
	tick   atomic.Int64

	ticks     atomic.Uint64
	planRuns  atomic.Uint64
	skipped   atomic.Uint64
	snapshots atomic.Uint64
	deduped   atomic.Uint64
	churnOps  atomic.Uint64
}

// ErrBusy is returned by TryRunTicks when a run is already in progress.
var ErrBusy = errors.New("monitor: run already in progress")

// New builds a Monitor appending snapshots to st. The world is built
// here and owned by the monitor; Close releases it.
func New(o Options, st *store.Store) (*Monitor, error) {
	if st == nil {
		return nil, errors.New("monitor: store required")
	}
	if o.Tick <= 0 {
		o.Tick = DefaultTick
	}
	if len(o.Plans) == 0 {
		o.Plans = DefaultPlans()
	}
	for i := range o.Plans {
		p := &o.Plans[i]
		if p.Name == "" {
			p.Name = p.Kind
		}
		d, ok := plan.ForStoreKind(p.Kind)
		if !ok {
			return nil, fmt.Errorf("monitor: unknown plan kind %q", p.Kind)
		}
		req := plan.Request{Kind: d.Kind, World: o.World}
		if err := d.Normalize(&req); err != nil {
			return nil, fmt.Errorf("monitor: plan %q: %w", p.Name, err)
		}
		o.World = req.World
		if p.Every <= 0 {
			return nil, fmt.Errorf("monitor: plan %q needs a positive period", p.Name)
		}
		if p.JitterPct < 0 || p.JitterPct > 50 {
			return nil, fmt.Errorf("monitor: plan %q jitter %d%% out of range [0, 50]", p.Name, p.JitterPct)
		}
	}
	w, err := world.Build(o.World, o.Engine...)
	if err != nil {
		return nil, fmt.Errorf("monitor: build world: %w", err)
	}
	brk := o.Broker
	if brk == nil {
		brk = NewBroker(o.Retain)
	}
	m := &Monitor{
		opts:  o,
		w:     w,
		st:    st,
		diff:  &plan.DiffEngine{Config: w.Engine},
		brk:   brk,
		churn: newChurnDriver(o.Seed),
		cfg:   store.ConfigHash(o.World),
	}
	return m, nil
}

// Close releases the monitored world.
func (m *Monitor) Close() { m.w.Close() }

// ConfigHash returns the store config hash monitor snapshots carry.
func (m *Monitor) ConfigHash() string { return m.cfg }

// Plans returns a copy of the resolved scan rotation.
func (m *Monitor) Plans() []Plan {
	out := make([]Plan, len(m.opts.Plans))
	copy(out, m.opts.Plans)
	return out
}

// TickCount returns how many ticks have completed.
func (m *Monitor) TickCount() int { return int(m.tick.Load()) }

// Counters snapshots the scheduler counters.
func (m *Monitor) Counters() Counters {
	return Counters{
		Ticks:             m.ticks.Load(),
		PlanRuns:          m.planRuns.Load(),
		SkippedOverlap:    m.skipped.Load(),
		SnapshotsAppended: m.snapshots.Load(),
		SnapshotsDeduped:  m.deduped.Load(),
		ChurnOps:          m.churnOps.Load(),
	}
}

// RunTicks advances the loop n ticks, returning every event published,
// in order. Concurrent calls serialize.
func (m *Monitor) RunTicks(ctx context.Context, n int) ([]Event, error) {
	m.runMu.Lock()
	defer m.runMu.Unlock()
	return m.run(ctx, n)
}

// TryRunTicks is RunTicks, but returns ErrBusy instead of waiting when
// another run holds the loop.
func (m *Monitor) TryRunTicks(ctx context.Context, n int) ([]Event, error) {
	if !m.runMu.TryLock() {
		return nil, ErrBusy
	}
	defer m.runMu.Unlock()
	return m.run(ctx, n)
}

func (m *Monitor) run(ctx context.Context, n int) ([]Event, error) {
	var out []Event
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		tick := int(m.tick.Add(1))
		m.ticks.Add(1)

		// Sleep to the next tick boundary, then let the world churn
		// "while we slept".
		m.w.Clock.Advance(m.opts.Tick)
		if !m.opts.NoChurn {
			ops, err := m.churn.apply(m.w)
			for _, op := range ops {
				op := op
				out = append(out, m.publish(Event{
					Tick: tick, At: m.w.Clock.Now(), Type: EventChurn, Churn: &op,
				}))
				m.churnOps.Add(1)
			}
			if err != nil {
				return out, err
			}
		}

		// Run due plans in rotation order. Each plan runs at most once
		// per tick; firings the run itself overlapped (the pipeline
		// advanced the clock past the next due time) are suppressed with
		// an explicit skip event so the stream accounts for every
		// scheduled firing.
		for pi := range m.plans() {
			ps := &m.states[pi]
			if ps.next.After(m.w.Clock.Now()) {
				continue
			}
			ev, err := m.runPlan(ctx, tick, ps)
			if err != nil {
				return out, err
			}
			out = append(out, ev)
			for {
				ps.next = ps.next.Add(m.period(&ps.plan, ps.fires))
				ps.fires++
				if ps.next.After(m.w.Clock.Now()) {
					break
				}
				out = append(out, m.publish(Event{
					Tick: tick, At: m.w.Clock.Now(), Type: EventSkip,
					Plan: ps.plan.Name, Kind: ps.plan.Kind,
					Note: fmt.Sprintf("firing due %s overlapped the previous run", ps.next.UTC().Format(time.RFC3339)),
				}))
				m.skipped.Add(1)
			}
		}
	}
	return out, nil
}

// plans lazily initializes the schedule state: every plan is first due
// immediately, so the first tick records the baseline snapshot every
// later diff hangs off.
func (m *Monitor) plans() []planState {
	if m.states == nil {
		now := m.w.Clock.Now()
		m.states = make([]planState, len(m.opts.Plans))
		for i, p := range m.opts.Plans {
			m.states[i] = planState{plan: p, next: now}
		}
	}
	return m.states
}

// period returns the jittered gap before firing index fire+1: the base
// period plus a deterministic fraction of it derived from (seed, plan
// name, firing index) — independent of execution order and worker count.
func (m *Monitor) period(p *Plan, fire int) time.Duration {
	if p.JitterPct == 0 {
		return p.Every
	}
	h := fnv.New64a()
	h.Write([]byte(p.Name))
	r := splitmix64{s: m.opts.Seed ^ h.Sum64() ^ (uint64(fire) * 0x9e3779b97f4a7c15)}
	frac := int64(r.next() % 1000) // thousandths of the jitter window
	jitter := int64(p.Every) / 100 * int64(p.JitterPct) * frac / 1000
	return p.Every + time.Duration(jitter)
}

// runPlan executes one plan, appends the snapshot, diffs against the
// previous one, and publishes the snapshot event.
func (m *Monitor) runPlan(ctx context.Context, tick int, ps *planState) (Event, error) {
	p := &ps.plan
	body, err := m.runPipeline(ctx, p)
	if err != nil {
		return Event{}, fmt.Errorf("monitor: plan %s: %w", p.Name, err)
	}
	prev, hadPrev := m.st.Latest(p.Kind, m.cfg)
	meta, err := m.st.Append(store.Snapshot{
		Kind:   p.Kind,
		At:     m.w.Clock.Now(),
		Config: m.cfg,
		Note:   fmt.Sprintf("monitor %s tick %d", p.Name, tick),
		Body:   body,
	})
	if err != nil {
		return Event{}, fmt.Errorf("monitor: append %s snapshot: %w", p.Kind, err)
	}
	m.planRuns.Add(1)
	ev := Event{
		Tick: tick, At: m.w.Clock.Now(), Type: EventSnapshot,
		Plan: p.Name, Kind: p.Kind,
		Seq: meta.Seq, SnapshotID: meta.ID, Deduped: meta.Deduped,
	}
	if meta.Deduped {
		m.deduped.Add(1)
	} else {
		m.snapshots.Add(1)
		if hadPrev {
			_, prevBody, err := m.st.Get(strconv.FormatUint(prev.Seq, 10))
			if err != nil {
				return Event{}, fmt.Errorf("monitor: read previous %s snapshot: %w", p.Kind, err)
			}
			d, err := m.diff.Diff(ctx,
				plan.Input{Meta: prev, Body: prevBody},
				plan.Input{Meta: meta, Body: body})
			if err != nil {
				return Event{}, fmt.Errorf("monitor: diff %s: %w", p.Kind, err)
			}
			ev.Diff = d
		}
	}
	return m.publish(ev), nil
}

// runPipeline executes the plan's scan on the monitored world and
// returns the snapshot body — the same document fmserve serves for the
// kind, through the same plan descriptor, so monitor snapshots and API
// snapshots diff against each other.
func (m *Monitor) runPipeline(ctx context.Context, p *Plan) (json.RawMessage, error) {
	d, _ := plan.ForStoreKind(p.Kind)
	doc, _, err := plan.Execute(ctx, m.w, plan.Request{
		Kind: d.Kind, World: m.opts.World, Rounds: p.Rounds, Budget: p.Budget,
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(doc)
}

func (m *Monitor) publish(e Event) Event {
	return m.brk.Publish(e)
}
