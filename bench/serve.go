package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"filtermap/internal/fingerprint"
	"filtermap/internal/scanner"
	"filtermap/internal/server"
	"filtermap/internal/world"
)

const (
	// serveClients is the closed loop's client count: one per core of the
	// 2-core machine the bounds were calibrated on.
	serveClients = 2
	// serveSetups is how many servers the set-up median builds.
	serveSetups = 15
	// zipfS skews key popularity; with 1,800 keys against the default
	// 256-entry cache about 70% of requests hit.
	zipfS = 1.1
	// tracedRequests is how many requests the traced phase times.
	tracedRequests = 1000
	// serveWarmup is how many untimed requests fill the cache before the
	// measured loop. The live heap is read after them: a fixed amount of
	// work, because pipes held by pending deadline timers make the heap at
	// any later point grow with throughput.
	serveWarmup = 2000
)

// identifyKey is one request body and the parameters it carries.
type identifyKey struct {
	body      []byte
	products  []string
	countries []string
}

// identifyKeys enumerates every non-empty product subset times every
// unordered pair (with repetition) of the base index's countries: 15 x 120
// = 1,800 distinct cache keys for the default world.
func identifyKeys(products, countries []string) []identifyKey {
	var keys []identifyKey
	for mask := 1; mask < 1<<len(products); mask++ {
		var ps []string
		for i, p := range products {
			if mask&(1<<i) != 0 {
				ps = append(ps, p)
			}
		}
		for i := range countries {
			for j := i; j < len(countries); j++ {
				cs := []string{countries[i]}
				if j != i {
					cs = append(cs, countries[j])
				}
				body, _ := json.Marshal(server.IdentifyRequest{Products: ps, Countries: cs}) //nolint:errcheck // plain strings always marshal
				keys = append(keys, identifyKey{body, ps, cs})
			}
		}
	}
	return keys
}

// served is a running server behind a loopback HTTP listener.
type served struct {
	srv *server.Server
	ts  *httptest.Server
}

// startServer builds a default server, puts it on loopback and runs one
// empty identify so the base index is scanned before any timed request.
func startServer() (*served, error) {
	srv, err := server.New(server.Options{})
	if err != nil {
		return nil, err
	}
	s := &served{srv, httptest.NewServer(srv)}
	resp, err := http.Post(s.ts.URL+"/v1/identify?wait=1", "application/json", bytes.NewReader([]byte("{}")))
	if err == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse only
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("warm-up identify: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *served) stop() {
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx) //nolint:errcheck // the benchmark is done with it either way
}

// metrics fetches the server's /metrics document in-process.
func (s *served) metrics() (server.MetricsDoc, error) {
	rec := httptest.NewRecorder()
	s.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var doc server.MetricsDoc
	err := json.Unmarshal(rec.Body.Bytes(), &doc)
	return doc, err
}

// loadResult is what a closed loop measured.
type loadResult struct {
	lat      []float64 // ms, every completed request
	keys     []int     // key index per request, in client-interleaved order
	wall     time.Duration
	failures []string
}

// closedLoop runs serveClients clients, each on one keep-alive connection,
// each sending its next request only after the last one completed, until
// the deadline or maxReq requests. Keys are drawn Zipf(zipfS) over a
// seeded permutation. bodies maps key index to the first body served, so
// every later answer for the key, hit or miss, must match it.
func closedLoop(url string, keys []identifyKey, perm []int, seed int64, until time.Time, maxReq int, bodies *sync.Map, tr *tracer, parent int) loadResult {
	var (
		mu   sync.Mutex
		res  loadResult
		sent atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*serveClients + int64(c)))
			zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(keys)-1))
			tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tp.CloseIdleConnections()
			client := &http.Client{Transport: tp}
			var lat []float64
			var ks []int
			var fails []string
			for time.Now().Before(until) && (maxReq == 0 || sent.Add(1) <= int64(maxReq)) {
				k := perm[zipf.Uint64()]
				span := tr.begin(parent, c+1, "server", "POST /v1/identify")
				t := time.Now()
				body, status, err := post(client, url, keys[k].body)
				d := time.Since(t)
				tr.end(span)
				switch {
				case err != nil:
					fails = append(fails, err.Error())
					continue
				case status != http.StatusOK:
					fails = append(fails, fmt.Sprintf("key %d: status %d", k, status))
					continue
				}
				sum := sha256.Sum256(body)
				if prev, loaded := bodies.LoadOrStore(k, sum); loaded && prev.([32]byte) != sum {
					fails = append(fails, fmt.Sprintf("key %d: body differs from its first answer", k))
				}
				lat = append(lat, ms(d))
				ks = append(ks, k)
			}
			mu.Lock()
			res.lat = append(res.lat, lat...)
			res.keys = append(res.keys, ks...)
			res.failures = append(res.failures, fails...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

func post(client *http.Client, url string, body []byte) ([]byte, int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// runServe measures identify requests against a default server over
// loopback TCP: server construction plus warm-up is set-up, one request
// is the op.
func runServe(ctx context.Context, cfg *config, r *result) error {
	base, err := world.Build(world.Options{})
	if err != nil {
		return err
	}
	defer base.Close()
	idx, err := base.Scanner().ScanNetwork(ctx)
	if err != nil {
		return err
	}
	products := make([]string, 0, 4)
	for p := range fingerprint.ShodanKeywords() {
		products = append(products, p)
	}
	sort.Strings(products)
	keys := identifyKeys(products, idx.Countries())
	perm := rand.New(rand.NewSource(cfg.Seed)).Perm(len(keys))

	var s *served
	for i := 0; i < serveSetups; i++ {
		if s != nil {
			s.stop()
		}
		start := time.Now()
		if s, err = startServer(); err != nil {
			return err
		}
		r.SetupS = append(r.SetupS, time.Since(start).Seconds())
	}
	defer s.stop()

	url := s.ts.URL + "/v1/identify?wait=1"
	var bodies sync.Map
	warm := serveWarmup
	if cfg.MaxOps > 0 {
		warm = cfg.MaxOps
	}
	for _, f := range closedLoop(url, keys, perm, -cfg.Seed-1, time.Now().Add(time.Minute), warm, &bodies, nil, 0).failures {
		r.fail("warm-up: %s", f)
	}
	r.heapMB = liveHeapMB()
	rt0 := readRuntime()
	until := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	load := closedLoop(url, keys, perm, cfg.Seed, until, cfg.MaxOps, &bodies, nil, 0)
	r.runtime = readRuntime().sub(rt0)
	r.Attempted = len(load.lat) + len(load.failures)
	for _, f := range load.failures {
		r.fail("%s", f)
	}
	r.OpMs = load.lat
	r.items = float64(len(load.lat))
	r.busy = load.wall.Seconds()
	doc, err := s.metrics()
	if err != nil {
		return err
	}

	c := doc.Cache
	lookups := float64(max(1, c.Hits+c.Misses+c.Coalesced))
	r.named("serve_p50_ms", median(r.OpMs), "ms")
	tail := supportedTail(len(r.OpMs))
	r.named(fmt.Sprintf("serve_p%g_ms", tail), percentile(r.OpMs, tail), "ms")
	r.named("serve_rps", r.items/r.busy, "req/s")
	r.named("server.cache_hit_ratio", float64(c.Hits)/lookups, "ratio")
	r.named("server.pipeline_runs", float64(doc.Runs[server.KindIdentify]), "count")
	r.named("server.coalesced", float64(c.Coalesced), "count")
	if cfg.Trace {
		return traceServe(ctx, cfg, r, s, base, idx, keys, perm, doc, load.keys)
	}
	return nil
}

// preroll is how many of the measured loop's last keys a replay server
// serves, untimed, so its cache starts the replay in the loop's steady
// state rather than cold.
const preroll = 3000

// traceServe times a batch of requests with a span each, then replays
// the batch's keys one at a time: through Server.ServeHTTP on a fresh
// server (no network), and, for every key that missed, through the
// keyword search, fingerprint validation and whois/geo calls the identify
// pipeline makes for it, and engine dispatch of its items.
func traceServe(ctx context.Context, cfg *config, r *result, s *served, base *world.World, idx *scanner.Index, keys []identifyKey, perm []int, untraced server.MetricsDoc, loopKeys []int) error {
	n := cfg.TracedOps
	if n == 0 {
		n = tracedRequests
	}
	tr := newTracer()
	root := tr.begin(0, 1, "", "serve-identify")
	url := s.ts.URL + "/v1/identify?wait=1"
	var bodies sync.Map
	// batch runs n requests from fresh client streams. The traced batch
	// follows an untraced twin and the single-core batch a default one, so
	// each ratio compares batches that met the same server state.
	batch := func(label string, seed int64, parent int, tr *tracer) loadResult {
		res := closedLoop(url, keys, perm, seed, time.Now().Add(time.Minute), n, &bodies, tr, parent)
		for _, f := range res.failures {
			r.fail("%s: %s", label, f)
		}
		return res
	}
	twin := batch("twin", cfg.Seed+1, 0, nil)
	span := tr.begin(root, 1, "", fmt.Sprintf("%d requests", n))
	load := batch("traced", cfg.Seed+2, span, tr)
	tr.end(span)
	if len(load.keys) == 0 {
		return fmt.Errorf("traced batch completed no request")
	}

	a := attribution{}
	rs := tr.begin(span, 1, "", "replay Server.ServeHTTP")
	fresh, err := startServer()
	if err != nil {
		return err
	}
	defer fresh.stop()
	serve := func(k int) {
		req := httptest.NewRequest(http.MethodPost, "/v1/identify?wait=1", bytes.NewReader(keys[k].body))
		fresh.srv.ServeHTTP(httptest.NewRecorder(), req)
	}
	for _, k := range loopKeys[max(0, len(loopKeys)-preroll):] {
		serve(k)
	}
	before, err := fresh.metrics()
	if err != nil {
		return err
	}
	var hit, miss time.Duration
	var nHit int
	var missKeys []int
	for _, k := range load.keys {
		start := time.Now()
		serve(k)
		d := time.Since(start)
		after, err := fresh.metrics()
		if err != nil {
			return err
		}
		if after.Cache.Misses > before.Cache.Misses {
			tr.record(rs, 1, "server", "ServeHTTP miss", start, d)
			miss += d
			missKeys = append(missKeys, k)
		} else {
			tr.record(rs, 1, "server", "ServeHTTP hit", start, d)
			hit += d
			nHit++
		}
		before = after
	}
	tr.end(rs)

	rp := tr.begin(span, 1, "", "replay identify pipeline of each miss")
	byAddr := map[netip.Addr][]endpoint{}
	for _, b := range idx.All() {
		byAddr[b.Addr] = append(byAddr[b.Addr], endpoint{addr: b.Addr, port: b.Port, target: "/"})
	}
	all := fingerprint.ShodanKeywords()
	var pl pipelineReplay
	var disp time.Duration
	var items int
	var candEps []endpoint
	seen := map[netip.Addr]bool{}
	for _, k := range missKeys {
		kw := map[string][]string{}
		for _, p := range keys[k].products {
			kw[p] = all[p]
		}
		cands := pl.searchReplay(tr, rp, r, idx, identifyQueries(kw, keys[k].countries))
		valid := pl.validateReplay(ctx, tr, rp, base, cands)
		pl.geoReplay(ctx, tr, rp, r, base, valid)
		n := len(kw) + len(cands) + 2*len(valid)
		disp += dispatch(ctx, tr, rp, base.Engine, n)
		items += n
		for _, c := range cands {
			if !seen[c] {
				seen[c] = true
				candEps = append(candEps, byAddr[c]...)
			}
		}
	}
	tr.end(rp)
	pl.setNamed(r)
	pipeline := pl.search + pl.validate + pl.geo + disp
	a.add("scanner", pl.search)
	a.add("fingerprint", pl.validate)
	a.add("geo", pl.geo)
	a.add("engine", disp)

	rl := tr.begin(span, 1, "", "replay loopback")
	loop := loopback(tr, rl, s.ts.URL+"/healthz")
	tr.end(rl)
	// The server keeps the handler time the pipeline replays do not
	// explain, plus the loopback transport every request crosses.
	a.add("server", hit)
	a.add("server", miss-pipeline)
	a.add("server", time.Duration(len(load.keys))*loop)

	rw := tr.begin(span, 1, "", "replay candidate exchanges")
	dials := dialSweep(ctx, tr, rw, "netsim", base.ScanVantage, candEps)
	wire := exchangeSweep(ctx, tr, rw, base.ScanVantage, candEps)
	tr.end(rw)
	r.layer("netsim.dial_ns", dials.perDialNs(), "ns")
	r.setWire(wire)
	r.layer("engine.dispatch_ns_per_item", float64(disp.Nanoseconds())/float64(max(1, items)), "ns")

	nMiss := len(missKeys)
	r.named("server.handler_hit_us", us(hit)/float64(max(1, nHit)), "us")
	r.named("server.handler_miss_ms", ms(miss)/float64(max(1, nMiss)), "ms")
	r.named("server.replay_hit_ratio", float64(nHit)/float64(len(load.keys)), "ratio")
	r.named("server.loopback_us", us(loop), "us")
	c := untraced.Cache
	r.layer("server.cache_hit_ratio", float64(c.Hits)/float64(max(1, c.Hits+c.Misses+c.Coalesced)), "ratio")
	r.layer("identify.validated_ratio", float64(pl.valid)/float64(max(1, pl.cands)), "ratio")
	r.setEngine(untraced.Engine, float64(len(r.OpMs)))

	full := batch("default-core", cfg.Seed+3, 0, nil)
	var one loadResult
	withProcs(1, func() { one = batch("single-core", cfg.Seed+4, 0, nil) })
	if len(one.lat) == 0 || len(full.lat) == 0 {
		return fmt.Errorf("scaling batches completed no request")
	}
	builds := make([]float64, 0, 5)
	for i := 0; i < 5; i++ {
		start := time.Now()
		w, err := world.Build(world.Options{})
		if err != nil {
			return err
		}
		builds = append(builds, ms(time.Since(start)))
		w.Close()
	}
	tr.end(root)

	perReq := durMean(r.OpMs)
	r.finish(a, time.Duration(len(load.keys))*perReq)
	r.layer("trace.overhead", median(load.lat)/median(twin.lat), "ratio")
	// Time per request at one core over time per request at the default.
	r.layer("engine.cpu_scaling", one.wall.Seconds()/float64(len(one.lat))/(full.wall.Seconds()/float64(len(full.lat))), "ratio")
	r.layer("world.build_ms", median(builds), "ms")
	r.setRuntime()
	return r.writeTrace(tr, cfg)
}

// loopback is the median time of a trivial request over a keep-alive
// loopback connection: the net/http and TCP cost every request pays.
func loopback(tr *tracer, parent int, url string) time.Duration {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp}
	var lat []float64
	start := time.Now()
	for i := 0; i < 200; i++ {
		t := time.Now()
		resp, err := client.Get(url)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse only
		resp.Body.Close()
		lat = append(lat, float64(time.Since(t)))
	}
	tr.record(parent, 1, "server", "GET /healthz x200", start, time.Since(start))
	return time.Duration(median(lat))
}
