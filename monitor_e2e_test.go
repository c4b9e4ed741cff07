package filtermap_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"filtermap"
)

// End-to-end coverage for the continuous-measurement subsystem: the
// scheduler's event stream is pinned as a golden file and byte-compared
// across worker counts (the determinism contract), and fmserve's
// /v1/watch stream is driven over real HTTP, including a mid-stream
// disconnect resumed with Last-Event-ID.
//
// Regenerate the golden after an intentional change with:
//
//	UPDATE_GOLDEN=1 go test -run TestGoldenMonitor -count=1 .

// monitorRun executes the canonical 4-tick scripted run and returns the
// rendered log plus counter summary.
func monitorRun(t *testing.T, workers int) string {
	t.Helper()
	st, err := filtermap.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var engOpts []filtermap.Option
	if workers > 0 {
		engOpts = append(engOpts, filtermap.WithWorkers(workers))
	}
	mon, err := filtermap.NewMonitor(filtermap.MonitorOptions{
		Seed:   7,
		Engine: engOpts,
	}, st)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	events, err := mon.RunTicks(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	return filtermap.RenderMonitorLog(events) + "\n" + filtermap.RenderMonitorSummary(mon.Counters())
}

func TestGoldenMonitor(t *testing.T) {
	got := monitorRun(t, 1)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile("testdata/monitor.golden", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	compareGolden(t, "monitor.golden", got)

	// The determinism contract: the same seed and tick count produce the
	// identical event stream at any worker count.
	if par := monitorRun(t, 8); par != got {
		t.Fatalf("monitor run diverged at 8 workers:\n-- 1 worker --\n%s\n-- 8 workers --\n%s", got, par)
	}
}

// sseEvent is one parsed server-sent event frame.
type sseEvent struct {
	id   uint64
	kind string
	data string
}

// readSSE consumes frames from an event stream until n events (or EOF /
// read error, which terminates the stream early).
func readSSE(r io.Reader, n int) ([]sseEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []sseEvent
	var cur sseEvent
	for len(out) < n && sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.data != "" {
				out = append(out, cur)
				cur = sseEvent{}
			}
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &cur.id) //nolint:errcheck // malformed id stays 0 and fails the assertions
		case strings.HasPrefix(line, "event: "):
			cur.kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil && len(out) < n {
		return out, err
	}
	return out, nil
}

// TestWatchSSEResume drives /v1/watch over real HTTP: subscribe, watch a
// tick stream in, disconnect, miss a tick, and reconnect with
// Last-Event-ID to replay exactly the missed events.
func TestWatchSSEResume(t *testing.T) {
	srv, err := filtermap.NewServer(filtermap.ServeOptions{
		Monitor: &filtermap.MonitorOptions{
			Seed: 7,
			Plans: []filtermap.MonitorPlan{
				{Name: "identify", Kind: "identify", Every: 24 * time.Hour},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	tick := func() {
		resp, err := http.Post(ts.URL+"/v1/monitor/tick", "application/json", strings.NewReader(`{"ticks":1}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("tick: status %d: %s", resp.StatusCode, b)
		}
	}

	// Tick once before subscribing: the subscription must replay the
	// retained tail (since=0) before going live.
	tick()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/watch", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	// Tick 1 produced one churn and one snapshot event.
	first, err := readSSE(resp.Body, 2)
	if err != nil {
		t.Fatalf("read first batch: %v", err)
	}
	resp.Body.Close()
	if len(first) != 2 {
		t.Fatalf("got %d events before disconnect, want 2", len(first))
	}
	if first[0].kind != "churn" || first[1].kind != "snapshot" {
		t.Fatalf("event kinds = %q, %q; want churn, snapshot", first[0].kind, first[1].kind)
	}
	last := first[len(first)-1].id

	// Two ticks land while disconnected.
	tick()
	tick()

	// Reconnect with Last-Event-ID: the stream must replay everything
	// after the last event we saw, in order, with contiguous IDs.
	req, _ = http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/watch", nil)
	req.Header.Set("Last-Event-ID", fmt.Sprint(last))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	missed, err := readSSE(resp.Body, 4)
	if err != nil {
		t.Fatalf("read replay: %v", err)
	}
	if len(missed) != 4 {
		t.Fatalf("replayed %d events, want 4 (2 ticks x churn+snapshot)", len(missed))
	}
	for i, e := range missed {
		if want := last + uint64(i) + 1; e.id != want {
			t.Fatalf("replay event %d has id %d, want %d", i, e.id, want)
		}
		var body struct {
			Tick int    `json:"tick"`
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(e.data), &body); err != nil {
			t.Fatalf("replay event %d data is not JSON: %v", i, err)
		}
		if body.Type != e.kind {
			t.Fatalf("replay event %d: frame type %q != body type %q", i, e.kind, body.Type)
		}
	}

	// The long-poll fallback sees the same history.
	pollResp, err := http.Get(ts.URL + "/v1/watch?poll=1&since=" + fmt.Sprint(last))
	if err != nil {
		t.Fatal(err)
	}
	defer pollResp.Body.Close()
	var poll struct {
		LastEventID uint64            `json:"last_event_id"`
		Events      []json.RawMessage `json:"events"`
	}
	if err := json.NewDecoder(pollResp.Body).Decode(&poll); err != nil {
		t.Fatal(err)
	}
	if len(poll.Events) != 4 {
		t.Fatalf("poll returned %d events, want 4", len(poll.Events))
	}
	if poll.LastEventID != last+4 {
		t.Fatalf("poll last_event_id = %d, want %d", poll.LastEventID, last+4)
	}
}

// TestMonitorTickKeepsCache: a monitor tick churns the monitor's own
// world and records the churn in the snapshot store, but changes no
// world the API answers from, so the served identify document stays
// cached. The next request is a cache hit with the same bytes, and the
// churn is visible only in the monitor's snapshot.
func TestMonitorTickKeepsCache(t *testing.T) {
	ts := startServer(t, filtermap.ServeOptions{
		Monitor: &filtermap.MonitorOptions{
			Seed: 7,
			Plans: []filtermap.MonitorPlan{
				{Name: "identify", Kind: "identify", Every: 24 * time.Hour},
			},
		},
	})
	type cacheCounts struct {
		Hits    uint64 `json:"hits"`
		Misses  uint64 `json:"misses"`
		Entries int    `json:"entries"`
	}
	metrics := func() (cacheCounts, uint64) {
		var doc struct {
			Cache cacheCounts       `json:"cache"`
			Runs  map[string]uint64 `json:"runs"`
		}
		doJSON(t, http.MethodGet, ts.URL+"/metrics", "", http.StatusOK, &doc)
		return doc.Cache, doc.Runs["identify"]
	}

	served := postBytes(t, ts.URL+"/v1/identify?wait=1")
	before, runs := metrics()
	if before.Entries != 1 || runs != 1 {
		t.Fatalf("after one identify: cache %+v, %d identify runs; want 1 entry and 1 run", before, runs)
	}

	doJSON(t, http.MethodPost, ts.URL+"/v1/monitor/tick", `{"ticks":1}`, http.StatusOK, nil)

	again := postBytes(t, ts.URL+"/v1/identify?wait=1")
	if string(again) != string(served) {
		t.Fatalf("identify after a monitor tick changed:\nbefore: %.300s\nafter:  %.300s", served, again)
	}
	after, runs := metrics()
	if after.Entries != 1 || after.Hits != before.Hits+1 || after.Misses != before.Misses || runs != 1 {
		t.Fatalf("identify after a monitor tick: cache %+v (before %+v), %d identify runs; want a hit and no new run", after, before, runs)
	}

	// The tick's churn (seed 7 installs SmartFilter at 100.64.1.1, as
	// testdata/monitor.golden shows) lives in the monitor's snapshot.
	var snap struct {
		Body filtermap.IdentifyDoc `json:"body"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/snapshots/latest:identify", "", http.StatusOK, &snap)
	churned := func(doc filtermap.IdentifyDoc) bool {
		for _, inst := range doc.Installations {
			if inst.IP == "100.64.1.1" {
				return true
			}
		}
		return false
	}
	var doc filtermap.IdentifyDoc
	if err := json.Unmarshal(served, &doc); err != nil {
		t.Fatal(err)
	}
	if !churned(snap.Body) || churned(doc) {
		t.Fatalf("churned install 100.64.1.1: in the monitor's snapshot %v, in the served document %v; want true, false",
			churned(snap.Body), churned(doc))
	}
}
