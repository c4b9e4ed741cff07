package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/netip"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"filtermap/internal/engine"
	"filtermap/internal/httpwire"
	"filtermap/internal/netsim"
)

// The traced run times each layer from outside: it replays the
// operations one measured op made through the layer's public entry points,
// one call at a time. A layer's attributed time is its replay's duration,
// minus the replays of the lower layers its entry point calls into where
// the benchmark replays those too (the README lists each subtraction).
// Dividing by the untraced op time gives the layer's share; the shares sum
// to trace.coverage.

// attribution accumulates per-layer replay time for one op's operations.
type attribution map[string]time.Duration

// add attributes d to layer; negative differences (noise in a
// subtraction) count as zero.
func (a attribution) add(layer string, d time.Duration) {
	if d > 0 {
		a[layer] += d
	}
}

// finish turns an attribution into the <layer>.share metrics and their
// sum, trace.coverage: op is the untraced time of the unit of work the
// replay covered.
func (r *result) finish(a attribution, op time.Duration) {
	var sum time.Duration
	for _, m := range layerMetrics {
		if l, ok := strings.CutSuffix(m.name, ".share"); ok {
			r.layer(m.name, float64(a[l])/float64(op), "ratio")
			sum += a[l]
		}
	}
	r.layer("trace.coverage", float64(sum)/float64(op), "ratio")
}

// layer sets a per-layer metric.
func (r *result) layer(name string, v float64, unit string) {
	r.Layers[name] = metric{v, unit}
}

// endpoint is one service a replay dials: by address, or by name when the
// original operation resolved a hostname.
type endpoint struct {
	addr   netip.Addr
	name   string
	port   uint16
	target string // request target ("/" for banner grabs)
}

func (e endpoint) dial(ctx context.Context, h *netsim.Host) (net.Conn, error) {
	if e.name != "" {
		return h.DialHost(ctx, e.name, e.port)
	}
	return h.Dial(ctx, e.addr, e.port)
}

func (e endpoint) request() *httpwire.Request {
	host := e.name
	if host == "" {
		host = e.addr.String()
	}
	return &httpwire.Request{
		Method: "GET", Target: e.target, Proto: "HTTP/1.0",
		Header: httpwire.NewHeader("Host", host, "Connection", "close"),
	}
}

// dialStats is the outcome of a dial sweep.
type dialStats struct {
	open, refused   time.Duration
	nOpen, nRefused int
}

func (d dialStats) total() time.Duration { return d.open + d.refused }

func (d dialStats) perDialNs() float64 {
	return float64(d.total()) / float64(max(1, d.nOpen+d.nRefused))
}

// dialSweep dials and closes every endpoint from h, timing each call.
func dialSweep(ctx context.Context, tr *tracer, parent int, layer string, h *netsim.Host, eps []endpoint) dialStats {
	var st dialStats
	start := time.Now()
	for _, e := range eps {
		t := time.Now()
		conn, err := e.dial(ctx, h)
		if err == nil {
			conn.Close()
			st.open += time.Since(t)
			st.nOpen++
		} else {
			st.refused += time.Since(t)
			st.nRefused++
		}
	}
	tr.record(parent, 1, layer, fmt.Sprintf("Host.Dial+Close x%d", len(eps)), start, time.Since(start))
	return st
}

// wireStats is the outcome of an exchange sweep: per exchange, the request
// write into a discarding writer, the parse of the captured response bytes,
// and the full write-then-read on a dialed connection.
type wireStats struct {
	n, errs        int
	write, parse   time.Duration
	roundtrip      time.Duration
	allocsPerParse float64
}

// handler is the time the peer spent producing the response: the round
// trip minus the client's own write and parse.
func (w wireStats) handler() time.Duration { return w.roundtrip - w.write - w.parse }

// exchangeSweep replays one HTTP exchange per endpoint from h.
func exchangeSweep(ctx context.Context, tr *tracer, parent int, h *netsim.Host, eps []endpoint) wireStats {
	var st wireStats
	var raws [][]byte
	var reqs []*httpwire.Request
	start := time.Now()
	for _, e := range eps {
		conn, err := e.dial(ctx, h)
		if err != nil {
			st.errs++
			continue
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // best effort
		req := e.request()
		var raw bytes.Buffer
		t := time.Now()
		_, werr := req.WriteTo(conn)
		_, rerr := httpwire.ReadResponse(bufio.NewReader(io.TeeReader(conn, &raw)), false)
		d := time.Since(t)
		conn.Close()
		if werr != nil || rerr != nil {
			st.errs++
			continue
		}
		st.roundtrip += d
		raws = append(raws, raw.Bytes())
		reqs = append(reqs, req)
	}
	tr.record(parent, 1, "products", fmt.Sprintf("exchange x%d", len(raws)), start, time.Since(start))
	st.n = len(raws)
	if st.n == 0 {
		return st
	}

	start = time.Now()
	for _, req := range reqs {
		req.WriteTo(io.Discard) //nolint:errcheck // io.Discard never fails
	}
	st.write = time.Since(start)
	tr.record(parent, 1, "httpwire", fmt.Sprintf("Request.WriteTo x%d", st.n), start, st.write)

	buf := httpwire.GetReadBuffer()
	defer buf.Release()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start = time.Now()
	for _, raw := range raws {
		if _, err := httpwire.ReadResponseBuffered(buf, bytes.NewReader(raw), false); err != nil {
			st.errs++
		}
	}
	st.parse = time.Since(start)
	runtime.ReadMemStats(&m1)
	tr.record(parent, 1, "httpwire", fmt.Sprintf("ReadResponseBuffered x%d", st.n), start, st.parse)
	st.allocsPerParse = float64(m1.Mallocs-m0.Mallocs) / float64(st.n)
	return st
}

// setWire reports an exchange sweep's per-call costs.
func (r *result) setWire(st wireStats) {
	n := float64(max(1, st.n))
	r.layer("httpwire.write_ns", float64(st.write.Nanoseconds())/n, "ns")
	r.layer("httpwire.parse_ns", float64(st.parse.Nanoseconds())/n, "ns")
	r.layer("httpwire.roundtrip_us", us(st.roundtrip)/n, "us")
	r.layer("products.handler_us", us(st.handler())/n, "us")
	r.named("httpwire.allocs_per_parse", st.allocsPerParse, "count")
	r.named("httpwire.exchanges", float64(st.n), "count")
}

// dispatch replays n no-op items through the engine pool under cfg and
// returns the elapsed time: the pool's own cost per item.
func dispatch(ctx context.Context, tr *tracer, parent int, cfg engine.Config, n int) time.Duration {
	cfg.Stats = engine.NewStats()
	cfg.Observer = nil
	items := make([]struct{}, n)
	start := time.Now()
	engine.ForEach(ctx, cfg, "replay", items, func(context.Context, struct{}) error { return nil }) //nolint:errcheck // no-op items cannot fail
	d := time.Since(start)
	tr.record(parent, 1, "engine", fmt.Sprintf("engine.ForEach no-op x%d", n), start, d)
	return d
}

// setEngine reports per-op engine counters summed over every stage and,
// in the details, each stage's own.
func (r *result) setEngine(snap engine.Snapshot, ops float64) {
	var attempts, retries uint64
	for _, s := range snap.Stages {
		attempts += s.Attempts
		retries += s.Retries
		r.named("engine."+s.Stage+".attempts", float64(s.Attempts)/ops, "count")
		r.named("engine."+s.Stage+".retries", float64(s.Retries)/ops, "count")
		r.named("engine."+s.Stage+".failures", float64(s.Failures)/ops, "count")
	}
	r.layer("engine.attempts_per_op", float64(attempts)/ops, "count")
	r.layer("engine.retries_per_op", float64(retries)/ops, "count")
}

// runtimeDelta is the process's GC and allocation activity over a
// measured loop.
type runtimeDelta struct {
	gcCPU, totalCPU float64
	mallocs, bytes  uint64
}

// readRuntime samples the runtime's cumulative counters. totalCPU is the
// CPU time available to the process: GOMAXPROCS integrated over wall time.
func readRuntime() runtimeDelta {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeDelta{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64(), s[3].Value.Uint64()}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.mallocs - b.mallocs, a.bytes - b.bytes}
}

// setRuntime reports the measured loop's GC share and allocations per op.
func (r *result) setRuntime() {
	d, ops := r.runtime, float64(len(r.OpMs))
	if d.totalCPU > 0 {
		r.layer("runtime.gc_cpu_fraction", d.gcCPU/d.totalCPU, "ratio")
	}
	r.layer("runtime.mallocs_per_op", float64(d.mallocs)/ops, "count")
	r.layer("runtime.alloc_kb_per_op", float64(d.bytes)/1024/ops, "KB")
}

// liveHeapMB is the heap still reachable after two forced collections.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// withProcs runs fn with GOMAXPROCS set to n, restoring the old value.
func withProcs(n int, fn func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// durMean is the mean of samples given in milliseconds, as a duration.
func durMean(msSamples []float64) time.Duration {
	return time.Duration(mean(msSamples) * float64(time.Millisecond))
}
