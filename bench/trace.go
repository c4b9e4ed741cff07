package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run: the workload, a pass, a
// public call the pass makes, or a replayed call into one layer.
type span struct {
	ID     int
	Parent int // 0 for the root
	Name   string
	Layer  string // module the span times ("" for workload and pass spans)
	TID    int    // client goroutine, so concurrent requests get their own track
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths share the traced ones.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent, tid int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer, TID: tid, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span that already happened, for calls timed in a tight
// loop where opening a span per call would cost more than the call.
func (t *tracer) record(parent, tid int, layer, name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer, TID: tid, Start: s, End: s + d})
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover, indexed by span id - 1.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur, end := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > end {
			if end > cur {
				total += end - cur
			}
			cur, end = s, e
			continue
		}
		end = max(end, e)
	}
	if end > cur {
		total += end - cur
	}
	return total
}

// chromeEvent is one Chrome trace-event ("X" complete event), the format
// Perfetto and chrome://tracing open.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as Chrome trace-event JSON at path.
func (t *tracer) write(path string, meta map[string]any) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		cat := s.Layer
		if cat == "" {
			cat = "bench"
		}
		events[i] = chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			TS: us(s.Start), Dur: us(s.End - s.Start),
			PID: 1, TID: s.TID,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "self_us": us(self[i])},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "metadata": meta})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
