package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"filtermap"

	"filtermap/internal/blockpage"
	"filtermap/internal/characterize"
	"filtermap/internal/engine"
	"filtermap/internal/httpwire"
	"filtermap/internal/measurement"
	"filtermap/internal/world"
)

// table4Suffix is the note fmrepro (and golden_test.go) appends to Table 4.
const table4Suffix = "\n(cells reconstructed from §5 prose; see EXPERIMENTS.md)"

// chaosSeeds is how many fault plans a chaos-measure run cycles through,
// so one run's median averages over several plans instead of resting on
// one plan's luck.
const chaosSeeds = 8

// measureOut is one measurement pass's output.
type measureOut struct {
	reports []*characterize.Report
	targets []world.MechanismSurveyTarget
	clients []*measurement.Client
}

// tests counts the URL tests the pass made.
func (m measureOut) tests() int {
	n := 0
	for _, rep := range m.reports {
		n += len(rep.Results)
	}
	for _, t := range m.targets {
		n += len(t.Results)
	}
	return n
}

// degraded counts the pass's transport-degraded results.
func (m measureOut) degraded() int {
	n := 0
	for _, rep := range m.reports {
		for i := range rep.Results {
			if _, d := rep.Results[i].Degraded(); d {
				n++
			}
		}
	}
	for _, t := range m.targets {
		for i := range t.Results {
			if _, d := t.Results[i].Degraded(); d {
				n++
			}
		}
	}
	return n
}

// measureSpec is what distinguishes characterize from chaos-measure.
type measureSpec struct {
	opts  func(pass int) world.Options
	mech  bool // also run the mechanism survey
	check func(r *result, pass int, out measureOut)
}

// measurePass is the op: position the clock as fmcharacterize does, then
// run §5 (and the mechanism survey). It takes the same public steps as
// World.RunCharacterization and World.RunMechanismSurvey but keeps the
// measurement clients, so release can close their pooled keep-alive
// connections: World.Close leaves those open, and each pass would strand
// ~1.7 MB and ~200 server goroutines, whose growing GC cost would then
// dominate the run.
func measurePass(ctx context.Context, tr *tracer, parent int, w *world.World, mech bool) (measureOut, error) {
	var out measureOut
	w.Clock.Advance(8 * time.Hour)
	w.EnsureYemenFilteringActive()
	runs, err := w.CharacterizationRuns()
	if err != nil {
		return out, err
	}
	for _, run := range runs {
		out.clients = append(out.clients, run.Client)
	}
	s := tr.begin(parent, 1, "measurement", "engine.Map characterize.Characterize")
	out.reports, err = engine.Map(ctx, w.Engine, world.StageCharacterize, runs, func(ctx context.Context, run characterize.Run) (*characterize.Report, error) {
		return characterize.Characterize(ctx, run), nil
	})
	tr.end(s)
	if err != nil || !mech {
		return out, err
	}
	for _, d := range w.MechDeployments {
		client, err := w.MeasureClient(d.ISP)
		if err != nil {
			return out, err
		}
		out.clients = append(out.clients, client)
		urls := make([]string, len(d.BlockedDomains))
		for i, dom := range d.BlockedDomains {
			urls[i] = "http://" + dom + "/"
		}
		s := tr.begin(parent, 1, "measurement", "Client.TestListMechanisms "+d.ISP)
		out.targets = append(out.targets, world.MechanismSurveyTarget{
			ISP: d.ISP, Country: d.Country, ASN: d.ASN,
			Results: client.TestListMechanisms(ctx, urls),
		})
		tr.end(s)
	}
	return out, nil
}

// release closes the pass's pooled connections.
func (m measureOut) release() {
	for _, c := range m.clients {
		c.CloseIdle()
	}
}

// runCharacterize measures clean §5 passes; every pass must reproduce
// testdata/table4.golden, which holds for any world seed.
func runCharacterize(ctx context.Context, cfg *config, r *result) error {
	path := cfg.Golden
	if path == "" {
		path = filepath.Join(cfg.Repo, "testdata", "table4.golden")
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	want := strings.TrimRight(string(golden), "\n")
	spec := measureSpec{
		opts: func(int) world.Options { return world.Options{Seed: cfg.Seed} },
		check: func(r *result, pass int, out measureOut) {
			got := filtermap.Reporter{}.Table4(out.reports) + table4Suffix
			if strings.TrimRight(got, "\n") != want {
				r.fail("pass %d: Table 4 differs from %s", pass+1, path)
			}
			if n := out.degraded(); n > 0 {
				r.fail("pass %d: %d degraded results without injected faults", pass+1, n)
			}
		},
	}
	return runMeasure(ctx, cfg, r, spec, "char")
}

// runChaos measures §5 plus the mechanism survey under the flaky fault
// plan. Pass i uses fault plan i mod chaosSeeds; every pass of one plan
// must render the same Table 4, mechanisms document and degraded count.
func runChaos(ctx context.Context, cfg *config, r *result) error {
	seeds := make([]uint64, chaosSeeds)
	for i := range seeds {
		seeds[i] = splitmix(uint64(cfg.Seed)*chaosSeeds + uint64(i))
	}
	type signature struct {
		doc      string
		degraded int
	}
	seen := map[uint64]signature{}
	degraded, tests := 0, 0
	spec := measureSpec{
		opts: func(pass int) world.Options {
			return world.Options{
				Seed: cfg.Seed, Mechanisms: &world.MechanismOptions{},
				ChaosSeed: seeds[pass%chaosSeeds], FaultProfile: "flaky",
			}
		},
		mech: true,
		check: func(r *result, pass int, out measureOut) {
			var rep filtermap.Reporter
			mj, err := json.Marshal(rep.MechanismsJSON(out.targets))
			if err != nil {
				r.fail("pass %d: %v", pass+1, err)
				return
			}
			sig := signature{rep.Table4WithReports(out.reports) + string(mj), out.degraded()}
			degraded += sig.degraded
			tests += out.tests()
			if sig.degraded == 0 {
				r.fail("pass %d: the flaky plan degraded nothing", pass+1)
			}
			seed := seeds[pass%chaosSeeds]
			if prev, ok := seen[seed]; !ok {
				seen[seed] = sig
			} else if prev != sig {
				r.fail("pass %d: fault plan %d rendered differently than on its first pass", pass+1, seed)
			}
		},
	}
	if err := runMeasure(ctx, cfg, r, spec, "chaos"); err != nil {
		return err
	}
	r.named("chaos.degraded_ratio", float64(degraded)/float64(max(1, tests)), "ratio")
	r.named("chaos.fault_plans", float64(len(seen)), "count")
	return nil
}

// splitmix is the splitmix64 finalizer: it spreads consecutive integers
// over the whole range (never 0 for the inputs used here in practice; 0 is
// mapped to 1 because ChaosSeed 0 disables fault injection).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		return 1
	}
	return x
}

// runMeasure is the measured loop both measurement workloads share: the
// world build is set-up, the pass is the op.
func runMeasure(ctx context.Context, cfg *config, r *result, spec measureSpec, prefix string) error {
	rt0 := readRuntime()
	for dl, pass := newDeadline(cfg), 0; dl.next(); pass++ {
		w, err := buildTimed(spec.opts(pass), r)
		if err != nil {
			return err
		}
		r.Attempted++
		start := time.Now()
		out, err := measurePass(ctx, nil, 0, w, spec.mech)
		d := time.Since(start)
		if err != nil {
			r.fail("pass %d: %v", pass+1, err)
		} else {
			r.OpMs = append(r.OpMs, ms(d))
			r.busy += d.Seconds()
			r.items += float64(out.tests())
			spec.check(r, pass, out)
			if len(r.OpMs) == 1 {
				r.heapMB = liveHeapMB()
			}
		}
		out.release()
		w.Close()
	}
	r.runtime = readRuntime().sub(rt0)

	tail := supportedTail(len(r.OpMs))
	r.named(prefix+"_pass_p50_ms", median(r.OpMs), "ms")
	r.named(fmt.Sprintf("%s_pass_p%s_ms", prefix, strconv.FormatFloat(tail, 'f', -1, 64)), percentile(r.OpMs, tail), "ms")
	r.named(prefix+"_urls_per_s", r.items/r.busy, "URL tests/s")
	if cfg.Trace {
		return traceMeasure(ctx, cfg, r, spec)
	}
	return nil
}

// traceMeasure runs traced passes, then replays the last pass's URL
// tests one at a time: the dual-vantage test itself, the field and lab
// fetches it makes, the block-page classification of the field chain, a
// dial and a single exchange to each URL's host from both vantages, and
// engine dispatch of the URL list.
func traceMeasure(ctx context.Context, cfg *config, r *result, spec measureSpec) error {
	n := cfg.TracedOps
	if n == 0 {
		n = 30
		if spec.mech {
			n = 10
		}
	}
	tr := newTracer()
	root := tr.begin(0, 1, "", r.Workload)
	// Each traced pass follows an untraced twin, so trace.overhead
	// compares passes that met the same heap and GC state.
	var traced, twins []float64
	var w *world.World
	var out measureOut
	var pass int
	for i := 0; i < n; i++ {
		if w != nil {
			w.Close()
		}
		d, err := timePass(ctx, spec, i)
		if err != nil {
			return err
		}
		twins = append(twins, d)

		pass = tr.begin(root, 1, "", fmt.Sprintf("pass %d", i+1))
		b := tr.begin(pass, 1, "world", "world.Build")
		w, err = world.Build(spec.opts(i))
		tr.end(b)
		if err != nil {
			return err
		}
		out.release()
		start := time.Now()
		out, err = measurePass(ctx, tr, pass, w, spec.mech)
		if err != nil {
			return err
		}
		traced = append(traced, ms(time.Since(start)))
		tr.end(pass)
	}
	defer w.Close()
	defer out.release()
	r.setEngine(w.Stats().Snapshot(), 1)

	a := attribution{}
	rs := tr.begin(pass, 1, "", "replay World.RunCharacterization")
	classifier := blockpage.NewClassifier(blockpage.DefaultPatterns())
	lab := w.LabVantage()
	var tests, classify, labFetch, fieldFetch time.Duration
	var nTests, matched int
	var reused uint64
	var fieldEps, labEps []endpoint
	var fieldWire wireStats
	var fieldDials dialStats
	for _, rep := range out.reports {
		client, err := w.MeasureClient(rep.ISP)
		if err != nil {
			return err
		}
		field, err := w.FieldVantage(rep.ISP)
		if err != nil {
			return err
		}
		// Keep-alive pools per vantage, as the measurement client keeps them.
		fp, lp := httpwire.NewConnPool(0), httpwire.NewConnPool(0)
		fc := field.PooledClient(measurement.DefaultFetchTimeout, fp)
		lc := lab.PooledClient(measurement.DefaultFetchTimeout, lp)
		fieldEps = fieldEps[:0]
		for _, res := range rep.Results {
			start := time.Now()
			client.TestURL(ctx, res.URL)
			d := time.Since(start)
			tr.record(rs, 1, "measurement", "Client.TestURL", start, d)
			tests += d

			start = time.Now()
			fc.GetFollow(ctx, res.URL) //nolint:errcheck // timing only
			f := time.Since(start)
			tr.record(rs, 1, "products", "field GetFollow", start, f)
			start = time.Now()
			lc.GetFollow(ctx, res.URL) //nolint:errcheck // timing only
			l := time.Since(start)
			tr.record(rs, 1, "world", "lab GetFollow", start, l)
			fieldFetch += f
			labFetch += l

			start = time.Now()
			_, ok := classifier.ClassifyChain(res.Field.Chain)
			c := time.Since(start)
			tr.record(rs, 1, "blockpage", "Classifier.ClassifyChain", start, c)
			classify += c
			if ok {
				matched++
			}
			nTests++
			if ep, ok := urlEndpoint(res.URL); ok {
				fieldEps = append(fieldEps, ep)
			}
		}
		got, _ := client.ReuseStats()
		reused += got
		client.CloseIdle()
		fp.Close()
		lp.Close()
		fieldDials = addDials(fieldDials, dialSweep(ctx, tr, rs, "netsim", field.Host, fieldEps))
		fieldWire = addWire(fieldWire, exchangeSweep(ctx, tr, rs, field.Host, fieldEps))
		labEps = append(labEps, fieldEps...)
	}
	labDials := dialSweep(ctx, tr, rs, "netsim", lab.Host, labEps)
	labWire := exchangeSweep(ctx, tr, rs, lab.Host, labEps)

	// The lab fetch is the uncensored path: dial, wire and the world's
	// origin servers. The field fetch adds the product gateway on top.
	a.add("netsim", labDials.total())
	a.add("httpwire", labWire.write+labWire.parse)
	a.add("world", labFetch-labDials.total()-labWire.write-labWire.parse)
	a.add("products", fieldFetch-labFetch)
	a.add("blockpage", classify)
	a.add("measurement", tests-fieldFetch-labFetch-classify)
	cfgMeasure := w.Engine
	cfgMeasure.Workers = cfgMeasure.WorkersOr(measurement.DefaultMeasureWorkers)
	d := dispatch(ctx, tr, rs, cfgMeasure, nTests)
	a.add("engine", d)
	tr.end(rs)

	if spec.mech {
		rm := tr.begin(pass, 1, "", "replay World.RunMechanismSurvey")
		var mech time.Duration
		nm := 0
		for _, t := range out.targets {
			client, err := w.MeasureClient(t.ISP)
			if err != nil {
				return err
			}
			for _, res := range t.Results {
				start := time.Now()
				client.TestURLMechanisms(ctx, res.URL)
				dm := time.Since(start)
				tr.record(rm, 1, "measurement", "Client.TestURLMechanisms", start, dm)
				mech += dm
				nm++
			}
			client.CloseIdle()
		}
		a.add("measurement", mech)
		r.named("measurement.mech_test_url_us", us(mech)/float64(max(1, nm)), "us")
		tr.end(rm)
		if err := faultWait(ctx, r, spec.opts(n-1), out, fieldFetch); err != nil {
			return err
		}
	}

	fn := float64(max(1, nTests))
	r.layer("engine.dispatch_ns_per_item", float64(d.Nanoseconds())/fn, "ns")
	r.layer("netsim.dial_ns", fieldDials.perDialNs(), "ns")
	r.setWire(fieldWire)
	r.layer("blockpage.blocked_ratio", float64(matched)/fn, "ratio")
	r.layer("measurement.reuse_ratio", float64(reused)/(2*fn), "ratio")
	r.named("measurement.test_url_us", us(tests)/fn, "us")
	r.named("blockpage.classify_chain_us", us(classify)/fn, "us")
	r.named("products.intercept_us", us(fieldFetch-labFetch)/fn, "us")

	// Single-core passes alternate with default ones, for the same reason
	// the traced passes have twins.
	var one, all []float64
	for i := 0; i < n; i++ {
		var d1 float64
		var err error
		withProcs(1, func() { d1, err = timePass(ctx, spec, i) })
		if err != nil {
			return fmt.Errorf("single-core pass: %w", err)
		}
		d, err := timePass(ctx, spec, i)
		if err != nil {
			return err
		}
		one, all = append(one, d1), append(all, d)
	}
	tr.end(root)

	r.finish(a, durMean(r.OpMs))
	r.layer("trace.overhead", median(traced)/median(twins), "ratio")
	r.layer("engine.cpu_scaling", median(one)/median(all), "ratio")
	r.layer("world.build_ms", median(r.SetupS)*1000, "ms")
	r.setRuntime()
	return r.writeTrace(tr, cfg)
}

// timePass builds pass i's world and returns how long one untraced pass
// on it takes, in milliseconds.
func timePass(ctx context.Context, spec measureSpec, i int) (float64, error) {
	w, err := world.Build(spec.opts(i))
	if err != nil {
		return 0, err
	}
	defer w.Close()
	start := time.Now()
	out, err := measurePass(ctx, nil, 0, w, spec.mech)
	d := time.Since(start)
	out.release()
	return ms(d), err
}

// faultWait replays the same field fetches on a fault-free world of the
// same seed: the difference is the time the fault plan made them wait.
func faultWait(ctx context.Context, r *result, opts world.Options, out measureOut, faulted time.Duration) error {
	opts.ChaosSeed, opts.FaultProfile = 0, ""
	clean, err := world.Build(opts)
	if err != nil {
		return err
	}
	defer clean.Close()
	clean.Clock.Advance(8 * time.Hour)
	var d time.Duration
	for _, rep := range out.reports {
		field, err := clean.FieldVantage(rep.ISP)
		if err != nil {
			return err
		}
		pool := httpwire.NewConnPool(0)
		fc := field.PooledClient(measurement.DefaultFetchTimeout, pool)
		for _, res := range rep.Results {
			start := time.Now()
			fc.GetFollow(ctx, res.URL) //nolint:errcheck // timing only
			d += time.Since(start)
		}
		pool.Close()
	}
	r.named("netsim.fault_wait_ms", ms(faulted-d), "ms")
	return nil
}

// urlEndpoint is the first hop of a URL fetch.
func urlEndpoint(raw string) (endpoint, bool) {
	u, err := url.Parse(raw)
	if err != nil || u.Hostname() == "" {
		return endpoint{}, false
	}
	port := uint16(80)
	if p := u.Port(); p != "" {
		n, err := strconv.ParseUint(p, 10, 16)
		if err != nil {
			return endpoint{}, false
		}
		port = uint16(n)
	}
	return endpoint{name: u.Hostname(), port: port, target: u.RequestURI()}, true
}

func addDials(a, b dialStats) dialStats {
	return dialStats{a.open + b.open, a.refused + b.refused, a.nOpen + b.nOpen, a.nRefused + b.nRefused}
}

func addWire(a, b wireStats) wireStats {
	n := a.n + b.n
	allocs := 0.0
	if n > 0 {
		allocs = (a.allocsPerParse*float64(a.n) + b.allocsPerParse*float64(b.n)) / float64(n)
	}
	return wireStats{n, a.errs + b.errs, a.write + b.write, a.parse + b.parse, a.roundtrip + b.roundtrip, allocs}
}
