package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/netip"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"filtermap"

	"filtermap/internal/fingerprint"
	"filtermap/internal/identify"
	"filtermap/internal/scanner"
	"filtermap/internal/world"
)

// scanSetups is how many extra world builds the set-up median takes
// besides the one each pass makes.
const scanSetups = 15

// runScan measures the §3 pipeline on a freshly built world per pass: the
// build is set-up, RunIdentification (the address sweep, keyword search,
// fingerprint validation and whois/geo) is the op.
func runScan(ctx context.Context, cfg *config, r *result) error {
	opts := world.Options{Scale: cfg.Scale, Seed: cfg.Seed}
	if opts.Scale == "" {
		opts.Scale = world.ScaleNation
	}
	want, err := defaultInstallations(ctx, cfg.Seed)
	if err != nil {
		return err
	}
	for i := 0; i < scanSetups; i++ {
		w, err := buildTimed(opts, r)
		if err != nil {
			return err
		}
		w.Close()
	}

	var w *world.World
	var rep *identify.Report
	var first scanFirst
	rt0 := readRuntime()
	for dl := newDeadline(cfg); dl.next(); {
		if w != nil {
			w.Close()
		}
		if w, err = buildTimed(opts, r); err != nil {
			return err
		}
		r.Attempted++
		start := time.Now()
		got, err := w.RunIdentification(ctx)
		d := time.Since(start)
		if err != nil {
			r.fail("pass %d: %v", r.Attempted, err)
			continue
		}
		rep = got
		r.OpMs = append(r.OpMs, ms(d))
		r.busy += d.Seconds()
		r.items += float64(len(w.Net.Addrs()) * len(scanner.DefaultPorts))
		checkScan(r, rep, want, &first)
		if len(r.OpMs) == 1 {
			r.heapMB = liveHeapMB()
			runtime.KeepAlive(rep)
		}
	}
	r.runtime = readRuntime().sub(rt0)
	defer w.Close()

	r.named("scan_s", median(r.OpMs)/1000, "s")
	r.named("scan_heap_mb", r.heapMB, "MB")
	r.named("scan.hosts", float64(w.ScaleHosts()), "count")
	r.named("scan.passes_differing", float64(first.differ), "count")
	r.named("scan.passes_degraded", float64(first.degraded), "count")
	if rep != nil {
		r.named("identify.installations", float64(len(rep.Installations)), "count")
	}
	if cfg.Trace {
		return traceScan(ctx, cfg, r, opts)
	}
	return nil
}

// buildTimed builds a world and records the build as a set-up sample.
func buildTimed(opts world.Options, r *result) (*world.World, error) {
	start := time.Now()
	w, err := world.Build(opts)
	if err != nil {
		return nil, err
	}
	r.SetupS = append(r.SetupS, time.Since(start).Seconds())
	return w, nil
}

// defaultInstallations identifies the default (handcrafted) world at the
// same seed: a scaled world adds synthetic hosts to it, so every
// installation found here must be found there too.
func defaultInstallations(ctx context.Context, seed int64) (map[netip.Addr]bool, error) {
	w, err := world.Build(world.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	rep, err := w.RunIdentification(ctx)
	if err != nil {
		return nil, err
	}
	want := make(map[netip.Addr]bool, len(rep.Installations))
	for _, in := range rep.Installations {
		want[in.Addr] = true
	}
	return want, nil
}

// scanFirst is what later passes are checked against.
type scanFirst struct {
	doc      []byte
	installs map[netip.Addr]bool
	differ   int // later passes whose identify document differs
	degraded int // passes that reported a stage error
}

// minKept is the share of the first pass's installations every pass must
// find again.
const minKept = 0.95

// checkScan is the scan oracle. A pass must find every installation of
// the default profile and find again at least minKept of the
// installations the first pass found. It is not required to be
// byte-identical to the first pass, nor free of stage errors: generic
// synthetic hosts and keyword decoys answer and close without reading the
// request, so under load a probe's or a validation fetch's request write
// can lose the race with that close. A few banners (now and then a
// synthetic console) then drop out of a pass, or a decoy's validation
// fails. Such passes are counted as scan.passes_differing and
// scan.passes_degraded instead.
func checkScan(r *result, rep *identify.Report, want map[netip.Addr]bool, first *scanFirst) {
	if rep.Degraded {
		first.degraded++
		for _, e := range rep.Errors {
			r.note("pass %d: %s %s: %s", r.Attempted, e.Stage, e.Target, e.Err)
		}
		for _, e := range rep.QueryErrors {
			r.note("pass %d: %v", r.Attempted, e)
		}
	}
	doc, err := json.Marshal(filtermap.Reporter{}.IdentifyJSON(rep))
	if err != nil {
		r.fail("pass %d: %v", r.Attempted, err)
		return
	}
	got := make(map[netip.Addr]bool, len(rep.Installations))
	for _, in := range rep.Installations {
		got[in.Addr] = true
	}
	for a := range want {
		if !got[a] {
			r.fail("pass %d: default-profile installation %s missing", r.Attempted, a)
			return
		}
	}
	if first.doc == nil {
		first.doc, first.installs = doc, got
		return
	}
	if !bytes.Equal(doc, first.doc) {
		first.differ++
	}
	kept := 0
	for a := range first.installs {
		if got[a] {
			kept++
		}
	}
	if float64(kept) < minKept*float64(len(first.installs)) {
		r.fail("pass %d: found %d of the first pass's %d installations", r.Attempted, kept, len(first.installs))
	}
}

// traceScan runs traced passes, then replays the last pass through each
// layer: engine dispatch of its probe jobs, a warm dial to every probed
// (address, port), materialization of a fresh world, one exchange per
// banner, re-indexing and every keyword query, validation of every
// candidate and the whois/geo lookups of every installation.
func traceScan(ctx context.Context, cfg *config, r *result, opts world.Options) error {
	n := cfg.TracedOps
	if n == 0 {
		n = 1
	}
	tr := newTracer()
	root := tr.begin(0, 1, "", "scan-nation")
	var traced []float64
	var w *world.World
	var idx *scanner.Index
	var rep *identify.Report
	var pass int
	for i := 0; i < n; i++ {
		if w != nil {
			w.Close()
		}
		pass = tr.begin(root, 1, "", fmt.Sprintf("pass %d", i+1))
		b := tr.begin(pass, 1, "world", "world.Build")
		var err error
		w, err = world.Build(opts)
		tr.end(b)
		if err != nil {
			return err
		}
		start := time.Now()
		s := tr.begin(pass, 1, "scanner", "Scanner.ScanNetwork")
		idx, err = w.Scanner().ScanNetwork(ctx)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin(pass, 1, "identify", "IdentifyPipeline.Run")
		p, err := w.IdentifyPipeline(ctx, idx)
		if err == nil {
			rep, err = p.Run(ctx)
		}
		tr.end(s)
		if err != nil {
			return err
		}
		traced = append(traced, ms(time.Since(start)))
		tr.end(pass)
	}
	defer w.Close()
	r.setEngine(w.Stats().Snapshot(), 1)

	a := attribution{}
	rs := tr.begin(pass, 1, "", "replay Scanner.ScanNetwork")
	addrs := w.Net.Addrs()
	probes := make([]endpoint, 0, len(addrs)*len(scanner.DefaultPorts))
	for _, addr := range addrs {
		for _, port := range scanner.DefaultPorts {
			probes = append(probes, endpoint{addr: addr, port: port, target: "/"})
		}
	}
	scanCfg := w.Engine
	scanCfg.Workers = scanCfg.WorkersOr(scanner.DefaultScanWorkers)
	scanCfg.Timeout = scanCfg.TimeoutOr(scanner.DefaultProbeTimeout)
	d := dispatch(ctx, tr, rs, scanCfg, len(probes))
	a.add("engine", d)
	r.layer("engine.dispatch_ns_per_item", float64(d.Nanoseconds())/float64(len(probes)), "ns")

	dials := dialSweep(ctx, tr, rs, "netsim", w.ScanVantage, probes)
	a.add("netsim", dials.total())
	r.layer("netsim.dial_ns", dials.perDialNs(), "ns")
	r.named("netsim.dial_open_ns", float64(dials.open.Nanoseconds())/float64(max(1, dials.nOpen)), "ns")
	r.named("netsim.dial_refused_ns", float64(dials.refused.Nanoseconds())/float64(max(1, dials.nRefused)), "ns")

	// The first dial into a fresh world's ISP materializes it; the same
	// dials again cost the network alone.
	fresh, err := world.Build(opts)
	if err != nil {
		return err
	}
	hosts := make([]endpoint, len(addrs))
	for i, addr := range addrs {
		hosts[i] = endpoint{addr: addr, port: 80}
	}
	cold := dialSweep(ctx, tr, rs, "world", fresh.ScanVantage, hosts)
	warm := dialSweep(ctx, tr, rs, "netsim", fresh.ScanVantage, hosts)
	isps := fresh.ScaleISPs()
	fresh.Close()
	a.add("world", cold.total()-warm.total())
	r.named("world.materialize_us_per_isp", us(cold.total()-warm.total())/float64(max(1, isps)), "us")

	banners := idx.All()
	eps := make([]endpoint, len(banners))
	for i, b := range banners {
		eps[i] = endpoint{addr: b.Addr, port: b.Port, target: "/"}
	}
	wire := exchangeSweep(ctx, tr, rs, w.ScanVantage, eps)
	a.add("httpwire", wire.write+wire.parse)
	a.add("products", wire.handler())
	r.setWire(wire)

	start := time.Now()
	ix := scanner.NewIndex()
	for _, b := range banners {
		ix.Add(b)
	}
	d = time.Since(start)
	tr.record(rs, 1, "scanner", fmt.Sprintf("Index.Add x%d", len(banners)), start, d)
	a.add("scanner", d)
	r.named("scanner.index_add_ns", float64(d.Nanoseconds())/float64(max(1, len(banners))), "ns")
	r.named("scanner.banners", float64(len(banners)), "count")
	tr.end(rs)

	ri := tr.begin(pass, 1, "", "replay IdentifyPipeline.Run")
	var pl pipelineReplay
	pl.searchReplay(tr, ri, r, idx, identifyQueries(fingerprint.ShodanKeywords(), idx.Countries()))
	cands := candidates(rep)
	pl.validateReplay(ctx, tr, ri, w, cands)
	pl.geoReplay(ctx, tr, ri, r, w, installAddrs(rep))
	pl.setNamed(r)
	a.add("scanner", pl.search)
	a.add("fingerprint", pl.validate)
	a.add("geo", pl.geo)
	a.add("engine", dispatch(ctx, tr, ri, w.Engine, len(cands)+2*len(rep.Installations)))
	r.layer("identify.validated_ratio", float64(rep.ValidatedCount)/float64(max(1, rep.CandidateCount)), "ratio")
	tr.end(ri)

	var one []float64
	withProcs(1, func() {
		w1, err := world.Build(opts)
		if err != nil {
			return
		}
		defer w1.Close()
		start := time.Now()
		if _, err := w1.RunIdentification(ctx); err == nil {
			one = append(one, ms(time.Since(start)))
		}
	})
	if len(one) == 0 {
		return fmt.Errorf("single-core pass failed")
	}
	tr.end(root)

	r.finish(a, durMean(r.OpMs))
	r.layer("trace.overhead", median(traced)/median(r.OpMs), "ratio")
	r.layer("engine.cpu_scaling", median(one)/median(r.OpMs), "ratio")
	r.layer("world.build_ms", median(r.SetupS)*1000, "ms")
	r.setRuntime()
	return r.writeTrace(tr, cfg)
}

// identifyQueries lists the keyword queries the identify pipeline issues:
// every product keyword bare and combined with every country.
func identifyQueries(keywords map[string][]string, countries []string) []string {
	products := make([]string, 0, len(keywords))
	for p := range keywords {
		products = append(products, p)
	}
	sort.Strings(products)
	var qs []string
	for _, p := range products {
		for _, kw := range keywords[p] {
			qs = append(qs, kw)
			for _, cc := range countries {
				qs = append(qs, kw+" country:"+cc)
			}
		}
	}
	return qs
}

// pipelineReplay accumulates the identify pipeline's replayed calls.
type pipelineReplay struct {
	search, validate, whois, geo time.Duration
	queries, cands, valid        int
}

// setNamed reports the per-call costs in the details.
func (p pipelineReplay) setNamed(r *result) {
	r.named("scanner.search_us_per_query", us(p.search)/float64(max(1, p.queries)), "us")
	r.named("scanner.queries", float64(p.queries), "count")
	r.named("fingerprint.identify_us", us(p.validate)/float64(max(1, p.cands)), "us")
	r.named("identify.candidates", float64(p.cands), "count")
	r.named("geo.whois_lookup_us", us(p.whois)/float64(max(1, p.valid)), "us")
}

// searchReplay runs every query against the index and returns the union
// of the hit addresses, sorted.
func (p *pipelineReplay) searchReplay(tr *tracer, parent int, r *result, idx *scanner.Index, queries []string) []netip.Addr {
	seen := map[netip.Addr]bool{}
	var hits []netip.Addr
	start := time.Now()
	for _, q := range queries {
		banners, err := idx.SearchString(q)
		if err != nil {
			r.fail("replay search %q: %v", q, err)
		}
		for _, b := range banners {
			if !seen[b.Addr] {
				seen[b.Addr] = true
				hits = append(hits, b.Addr)
			}
		}
	}
	d := time.Since(start)
	tr.record(parent, 1, "scanner", fmt.Sprintf("Index.SearchString x%d", len(queries)), start, d)
	p.search += d
	p.queries += len(queries)
	sort.Slice(hits, func(i, j int) bool { return hits[i].Less(hits[j]) })
	return hits
}

// validateReplay fingerprints every candidate from the research vantage
// and returns the ones a signature matched.
func (p *pipelineReplay) validateReplay(ctx context.Context, tr *tracer, parent int, w *world.World, cands []netip.Addr) []netip.Addr {
	fp := w.Fingerprinter()
	var valid []netip.Addr
	start := time.Now()
	for _, addr := range cands {
		if m, err := fp.Identify(ctx, addr); err == nil && len(m) > 0 {
			valid = append(valid, addr)
		}
	}
	d := time.Since(start)
	tr.record(parent, 1, "fingerprint", fmt.Sprintf("Engine.Identify x%d", len(cands)), start, d)
	p.validate += d
	p.cands += len(cands)
	return valid
}

// geoReplay runs the bulk whois lookup and the geolocation of every
// validated address.
func (p *pipelineReplay) geoReplay(ctx context.Context, tr *tracer, parent int, r *result, w *world.World, addrs []netip.Addr) {
	start := time.Now()
	if len(addrs) > 0 {
		if _, err := w.WhoisClient().Lookup(ctx, addrs); err != nil {
			r.fail("replay whois: %v", err)
		}
	}
	whois := time.Since(start)
	for _, a := range addrs {
		w.GeoDB.Country(a)
	}
	d := time.Since(start)
	tr.record(parent, 1, "geo", fmt.Sprintf("WhoisClient.Lookup+DB.Country x%d", len(addrs)), start, d)
	p.whois += whois
	p.geo += d
	p.valid += len(addrs)
}

// candidates is the union of every product's keyword candidates, sorted.
func candidates(rep *identify.Report) []netip.Addr {
	seen := map[netip.Addr]bool{}
	var out []netip.Addr
	for _, addrs := range rep.CandidatesByProduct {
		for _, a := range addrs {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func installAddrs(rep *identify.Report) []netip.Addr {
	out := make([]netip.Addr, len(rep.Installations))
	for i, in := range rep.Installations {
		out[i] = in.Addr
	}
	return out
}

// writeTrace stores the spans next to the details file.
func (r *result) writeTrace(tr *tracer, cfg *config) error {
	r.TraceFile = filepath.Join(cfg.Out, "trace", fmt.Sprintf("%s-seed%d.json", r.Workload, cfg.Seed))
	return tr.write(r.TraceFile, map[string]any{"workload": r.Workload, "seed": cfg.Seed})
}
