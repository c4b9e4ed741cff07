package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(data, n=4) for the same data.
	cases := []struct {
		data       []float64
		q1, q2, q3 float64
		median     float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 5.5},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5, 3},
		{[]float64{3, 1, 2}, 1, 2, 3, 2},
		{[]float64{5, 1}, 0, 3, 6, 3},
		{[]float64{0.5, 7, 2.25, 9, 4, 4, 1}, 1, 4, 7, 4},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.data)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.data); m != c.median {
			t.Errorf("median(%v) = %v, want %v", c.data, m, c.median)
		}
	}
}

func TestSupportedTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{4, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := supportedTail(c.n); p > 0 && c.n-rank(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, p, c.n-rank(c.n, p))
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Errorf("p100 of 1..100 = %v, want 100", got)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Start: 20 * ms, End: 50 * ms},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90 * ms, End: 120 * ms}, // runs past its parent
		{ID: 5, Parent: 3, Start: 25 * ms, End: 30 * ms},
	}
	self := selfTimes(spans)
	want := []time.Duration{100*ms - 40*ms - 10*ms, 20 * ms, 25 * ms, 30 * ms, 5 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d self = %v, want %v", i+1, self[i], want[i])
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONListsWhatTheProgramReports(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, e2eMetrics)
	check("per_layer", bj.PerLayer, layerMetrics)
}

// smoke runs one workload at smoke size with tracing on.
func smoke(t *testing.T, name string, cfg config) (*result, map[string]any) {
	t.Helper()
	w, ok := lookup(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	cfg.Workload, cfg.Seed, cfg.Trace = name, 3, true
	cfg.Repo, cfg.Out = "..", t.TempDir()
	r, err := execute(context.Background(), &cfg, w)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var out bytes.Buffer
	if err := report(&out, &cfg, w, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out.String())
	}
	return r, last
}

func TestSmokeEveryWorkloadReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	sizes := map[string]config{
		"scan-nation":    {Seconds: 1, MaxOps: 1, TracedOps: 1, Scale: "city"},
		"characterize":   {Seconds: 1, MaxOps: 2, TracedOps: 2},
		"chaos-measure":  {Seconds: 1, MaxOps: 1, TracedOps: 1},
		"serve-identify": {Seconds: 1, MaxOps: 200, TracedOps: 200},
	}
	bj := readBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, last := smoke(t, w.name, sizes[w.name])
			if r.Failed != 0 {
				t.Fatalf("%d failures: %v", r.Failed, r.Failures)
			}
			if last["correct"] != true || last["failed"] != 0.0 || last["attempted"].(float64) < 1 {
				t.Fatalf("result line %v", last)
			}
			metrics := last["metrics"].(map[string]any)
			for _, m := range bj.PerLayer {
				v, ok := metrics[m.Name].(map[string]any)
				if !ok {
					t.Errorf("per-layer metric %s missing", m.Name)
					continue
				}
				if f := v["value"].(float64); math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
					t.Errorf("%s = %v", m.Name, f)
				}
			}
			// The layers every workload passes through must have been timed.
			for _, name := range []string{"engine.dispatch_ns_per_item", "world.build_ms", "netsim.dial_ns",
				"httpwire.write_ns", "httpwire.parse_ns", "httpwire.roundtrip_us", "trace.coverage", "trace.overhead"} {
				if r.Layers[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, r.Layers[name].Value)
				}
			}
			for name, m := range r.e2e() {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("end-to-end %s = %v, want finite and > 0", name, m.Value)
				}
			}
			b, err := os.ReadFile(r.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &tr); err != nil {
				t.Fatalf("trace JSON: %v", err)
			}
			if len(tr.TraceEvents) < 3 {
				t.Fatalf("trace has %d events", len(tr.TraceEvents))
			}
		})
	}
}

func TestWrongOracleInputFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the characterize workload")
	}
	golden := filepath.Join(t.TempDir(), "table4.golden")
	if err := os.WriteFile(golden, []byte("not Table 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, last := smoke(t, "characterize", config{Seconds: 1, MaxOps: 2, TracedOps: 1, Golden: golden})
	if r.Failed != 2 || last["correct"] != false || last["failed"] != 2.0 {
		t.Fatalf("a wrong golden must fail every pass: failed=%d, line %v", r.Failed, last)
	}
}
