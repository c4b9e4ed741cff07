// Command fmbench is FilterMap's end-to-end benchmark. It drives the §3
// identification scan, the §5 dual-vantage measurement (clean and under
// injected faults) and the fmserve identify endpoint through their public
// Go APIs, checks every output against an oracle, and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root (bench/run.sh builds it first):
//
//	bash bench/run.sh --workload scan-nation --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --seed 1
//
// With --trace 1 the run also times each layer by replaying the
// workload's operations through that layer's public entry points, writes
// the spans as Chrome trace-event JSON, and reports the per-layer metrics
// instead of the end-to-end ones. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is one run's parameters. Flags set the first five; tests shrink
// the rest to smoke size.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Repo     string // repository root, for testdata/table4.golden
	Out      string // directory for the details and trace files

	// MaxOps caps the measured operations (0: run for Seconds).
	MaxOps int
	// TracedOps is how many operations the traced phase times (0: the
	// workload's default).
	TracedOps int
	// Scale overrides scan-nation's world profile (tests use "city").
	Scale string
	// Golden overrides the Table 4 golden path (tests feed a wrong one).
	Golden string
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run measured. The details file holds all of
// it; the last stdout line holds the contract subset.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Stamp     stamp             `json:"stamp"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	TailPct   float64           `json:"tail_percentile"`
	TailOK    bool              `json:"tail_supported"`
	SetupS    []float64         `json:"setup_s_samples"`
	OpMs      []float64         `json:"op_ms_samples"`
	Named     map[string]metric `json:"named"`
	Layers    map[string]metric `json:"layers,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`

	items   float64 // units of work the measured loop completed
	busy    float64 // seconds the measured loop ran
	heapMB  float64
	runtime runtimeDelta
}

// stamp identifies the machine, toolchain and code a result came from.
type stamp struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seconds    float64 `json:"seconds"`
	Ops        int     `json:"ops"`
	SetUps     int     `json:"setups"`
}

// fail records one failed or oracle-mismatched operation.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// note records an observation the oracle tolerates, for the details.
func (r *result) note(format string, args ...any) {
	if len(r.Notes) < 20 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// named sets a workload-specific metric in the details.
func (r *result) named(name string, v float64, unit string) {
	r.Named[name] = metric{v, unit}
}

// workload is one benchmark input set; BENCHMARK.json and the README say
// why each was chosen.
type workload struct {
	name string
	// tailPct is the percentile reported as op_tail_ms: the highest one
	// the workload's calibrated sample count supports, fixed so a run
	// that lands a few samples short does not switch percentiles. A
	// scan-nation run has too few passes for any; it reports the slowest.
	tailPct float64
	// unit names what work_per_s counts.
	unit string
	run  func(ctx context.Context, cfg *config, r *result) error
}

var workloads = []workload{
	{"scan-nation", 100, "probes", runScan},
	{"characterize", 95, "URL tests", runCharacterize},
	{"chaos-measure", 90, "URL and mechanism tests", runChaos},
	{"serve-identify", 99, "requests", runServe},
}

// e2eMetrics and layerMetrics are the names BENCHMARK.json lists, in order.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"work_per_s", "1/s"},
	{"live_heap_mb", "MB"},
}

var layerMetrics = []struct{ name, unit string }{
	{"engine.dispatch_ns_per_item", "ns"},
	{"engine.cpu_scaling", "ratio"},
	{"engine.attempts_per_op", "count"},
	{"engine.retries_per_op", "count"},
	{"world.build_ms", "ms"},
	{"netsim.dial_ns", "ns"},
	{"httpwire.write_ns", "ns"},
	{"httpwire.parse_ns", "ns"},
	{"httpwire.roundtrip_us", "us"},
	{"products.handler_us", "us"},
	{"identify.validated_ratio", "ratio"},
	{"blockpage.blocked_ratio", "ratio"},
	{"measurement.reuse_ratio", "ratio"},
	{"server.cache_hit_ratio", "ratio"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.mallocs_per_op", "count"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
	{"world.share", "ratio"},
	{"engine.share", "ratio"},
	{"netsim.share", "ratio"},
	{"httpwire.share", "ratio"},
	{"products.share", "ratio"},
	{"scanner.share", "ratio"},
	{"fingerprint.share", "ratio"},
	{"geo.share", "ratio"},
	{"blockpage.share", "ratio"},
	{"measurement.share", "ratio"},
	{"server.share", "ratio"},
}

func main() {
	var cfg config
	flag.StringVar(&cfg.Workload, "workload", "", "workload name, or all")
	flag.Int64Var(&cfg.Seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.Seconds, "seconds", 20, "measurement time per run")
	trace := flag.Int("trace", 0, "1 adds the traced layer replay and reports per-layer metrics")
	flag.StringVar(&cfg.Repo, "repo", ".", "repository root")
	flag.StringVar(&cfg.Out, "out", ".bench_build", "directory for details and trace files")
	flag.Parse()
	cfg.Trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if cfg.Seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	if cfg.Workload == "all" {
		os.Exit(runAll())
	}
	w, ok := lookup(cfg.Workload)
	if !ok {
		fatalf("unknown workload %q (want %s or all)", cfg.Workload, strings.Join(names(), ", "))
	}
	r, err := execute(context.Background(), &cfg, w)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	if err := report(os.Stdout, &cfg, w, r); err != nil {
		fatalf("%s: %v", w.name, err)
	}
	if r.Failed > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fmbench: "+format+"\n", args...)
	os.Exit(2)
}

func names() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runAll runs every workload in its own process, so one workload's heap
// and warmed caches never colour another's numbers.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fmbench:", err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		args := []string{"--workload", w.name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "--"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "fmbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// execute runs one workload and derives its metrics.
func execute(ctx context.Context, cfg *config, w workload) (*result, error) {
	r := &result{Workload: w.name, Seed: cfg.Seed, TailPct: w.tailPct, Named: map[string]metric{}}
	if cfg.Trace {
		r.Layers = map[string]metric{}
		for _, m := range layerMetrics {
			r.Layers[m.name] = metric{0, m.unit}
		}
	}
	if err := w.run(ctx, cfg, r); err != nil {
		return nil, err
	}
	if len(r.OpMs) == 0 || len(r.SetupS) == 0 {
		return nil, fmt.Errorf("no operation completed")
	}
	r.Attempted = max(r.Attempted, len(r.OpMs))
	r.TailOK = supportedTail(len(r.OpMs)) >= w.tailPct
	r.Stamp = stamp{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
		Seconds: cfg.Seconds, Ops: len(r.OpMs), SetUps: len(r.SetupS),
	}
	r.named("fail_ratio", float64(r.Failed)/float64(r.Attempted), "ratio")
	q1, _, q3 := quartiles(r.OpMs)
	r.named("op_q1_ms", q1, "ms")
	r.named("op_q3_ms", q3, "ms")
	return r, nil
}

// e2e returns the end-to-end metrics of an untraced run.
func (r *result) e2e() map[string]metric {
	return map[string]metric{
		"setup_s":      {median(r.SetupS), "s"},
		"op_p50_ms":    {median(r.OpMs), "ms"},
		"op_tail_ms":   {percentile(r.OpMs, r.TailPct), "ms"},
		"work_per_s":   {r.items / r.busy, "1/s"},
		"live_heap_mb": {r.heapMB, "MB"},
	}
}

// report prints the human-readable summary, writes the details file and
// ends with the one-line JSON result.
func report(out io.Writer, cfg *config, w workload, r *result) error {
	metrics := r.e2e()
	if cfg.Trace {
		metrics = r.Layers
	}
	fmt.Fprintf(out, "fmbench %s seed=%d nproc=%d gomaxprocs=%d %s commit=%s\n",
		w.name, cfg.Seed, r.Stamp.NumCPU, r.Stamp.GOMAXPROCS, r.Stamp.GoVersion, r.Stamp.Commit)
	fmt.Fprintf(out, "  %d ops (%s), %d set-ups, %d failed; tail = p%g (supported by the sample: %v)\n",
		len(r.OpMs), w.unit, len(r.SetupS), r.Failed, w.tailPct, r.TailOK)
	printMetrics(out, "end-to-end", r.e2e())
	printMetrics(out, w.name, r.Named)
	if cfg.Trace {
		printMetrics(out, "per-layer", r.Layers)
		fmt.Fprintf(out, "  trace: %s\n", r.TraceFile)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(out, "  FAIL %s\n", f)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(out, "  note %s\n", n)
	}
	details := filepath.Join(cfg.Out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, cfg.Seed, btoi(cfg.Trace)))
	if err := writeJSON(details, r); err != nil {
		return err
	}
	fmt.Fprintf(out, "  details: %s\n", details)
	line, err := json.Marshal(map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

func printMetrics(out io.Writer, title string, ms map[string]metric) {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(out, "  %s:\n", title)
	for _, k := range keys {
		fmt.Fprintf(out, "    %-34s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// commit is the VCS revision the binary was built from ("unknown" outside
// a git checkout).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// deadline bounds a measured loop: it runs until cfg.Seconds have passed
// or cfg.MaxOps operations started, and always starts at least one.
type deadline struct {
	end    time.Time
	maxOps int
	ops    int
}

func newDeadline(cfg *config) *deadline {
	return &deadline{end: time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second))), maxOps: cfg.MaxOps}
}

// next reports whether another operation should start.
func (d *deadline) next() bool {
	if d.ops > 0 && (time.Now().After(d.end) || (d.maxOps > 0 && d.ops >= d.maxOps)) {
		return false
	}
	d.ops++
	return true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
