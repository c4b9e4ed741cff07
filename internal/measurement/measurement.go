// Package measurement implements §4.1's in-network testing: a measurement
// client that fetches a URL list from a "field" vantage point (inside the
// ISP under study) and triggers the same fetches from a "lab" vantage
// point (the University of Toronto server, which does not censor), then
// compares the results to decide whether each page was blocked.
//
// The products under study answer blocked requests with explicit block
// pages (§4.1: "the products we test tend to use block pages that
// explicitly state that content has been censored"), so the primary
// verdict signal is block-page classification over the field redirect
// chain; status/content divergence between field and lab is the fallback
// signal for unattributed interference.
package measurement

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"time"

	"filtermap/internal/blockpage"
	"filtermap/internal/engine"
	"filtermap/internal/httpwire"
	"filtermap/internal/netsim"
	"filtermap/internal/simclock"
)

// Defaults for the zero-value Client.
const (
	// DefaultFetchTimeout bounds each fetch.
	DefaultFetchTimeout = 10 * time.Second
	// DefaultMeasureWorkers bounds concurrent URL tests in TestList.
	DefaultMeasureWorkers = 8
)

// StageMeasure names the TestList stage in the engine.Stats registry.
const StageMeasure = "measure"

// Verdict is the outcome of one URL test.
type Verdict int

const (
	// Accessible means field and lab agree the page loads.
	Accessible Verdict = iota
	// Blocked means the field vantage received a recognized block page or
	// demonstrably different content while the lab loaded the page.
	Blocked
	// Unreachable means both vantages failed — the site itself is down.
	Unreachable
	// Anomaly means the field failed in a way the corpus cannot attribute
	// (timeouts, resets) while the lab succeeded. §4.1's chosen products
	// rarely produce this, but the client must represent it.
	Anomaly
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Accessible:
		return "accessible"
	case Blocked:
		return "blocked"
	case Unreachable:
		return "unreachable"
	case Anomaly:
		return "anomaly"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Vantage is a measurement origin.
type Vantage struct {
	// Name labels the vantage in reports, e.g. "field:YemenNet" or
	// "lab:Toronto".
	Name string
	// Host is the machine the fetches originate from.
	Host *netsim.Host
	// Resolver is the recursive DNS resolver this vantage queries for the
	// mechanism probes (port 53, TCP). The zero value skips DNS probing —
	// HTTP-only measurement never touches it.
	Resolver netip.Addr
}

// Client returns an HTTP client dialing from the vantage.
func (v *Vantage) Client(timeout time.Duration) *httpwire.Client {
	return &httpwire.Client{
		Dial:      v.Host.Dialer(),
		Timeout:   timeout,
		UserAgent: "oni-measurement-client/2.1",
	}
}

// PooledClient is Client with keep-alive reuse: connections left healthy
// after an exchange are parked in pool for this vantage's next fetch.
func (v *Vantage) PooledClient(timeout time.Duration, pool *httpwire.ConnPool) *httpwire.Client {
	c := v.Client(timeout)
	c.Pool = pool
	return c
}

// Fetch is the raw outcome of one vantage's retrieval.
type Fetch struct {
	// Chain is the redirect chain (nil on dial failure).
	Chain []*httpwire.Response
	// Err is the transport error, if the fetch failed.
	Err error
}

// Final returns the last response of the chain, or nil.
func (f *Fetch) Final() *httpwire.Response {
	if len(f.Chain) == 0 {
		return nil
	}
	return f.Chain[len(f.Chain)-1]
}

// OK reports whether the fetch ended in a 2xx response.
func (f *Fetch) OK() bool {
	final := f.Final()
	return f.Err == nil && final != nil && final.StatusCode >= 200 && final.StatusCode < 300
}

// Result is one URL's dual-vantage comparison.
type Result struct {
	URL      string
	Field    Fetch
	Lab      Fetch
	Verdict  Verdict
	TestedAt time.Time

	// BlockMatch is the block-page classification when Verdict == Blocked
	// and a corpus pattern matched.
	BlockMatch blockpage.Match
	// Matched reports whether BlockMatch is valid.
	Matched bool
}

// Degraded reports whether a transport failure kept this comparison from
// being conclusive, with a short detail line for degraded-result reports.
// A recognized block page is conclusive evidence no matter how the rest
// of the exchange went, so matched results are never degraded.
func (r *Result) Degraded() (string, bool) {
	if r.Matched {
		return "", false
	}
	var parts []string
	if r.Field.Err != nil {
		parts = append(parts, "field: "+r.Field.Err.Error())
	}
	if r.Lab.Err != nil {
		parts = append(parts, "lab: "+r.Lab.Err.Error())
	}
	if len(parts) == 0 {
		return "", false
	}
	return strings.Join(parts, "; "), true
}

// Client is the dual-vantage measurement client.
type Client struct {
	// Field is the in-country vantage.
	Field *Vantage
	// Lab is the unfiltered comparison vantage.
	Lab *Vantage
	// Config carries the shared execution knobs (workers, timeout, retry,
	// stats, observer) for TestList's URL fan-out. Config.Timeout bounds
	// each fetch (default 10s).
	Config engine.Config
	// DisableReuse turns off per-vantage keep-alive connection reuse and
	// restores the one-connection-per-request behavior. Reuse is safe to
	// leave on: product gateways close every intercepted connection after
	// one exchange, so only un-intercepted traffic (lab fetches, direct
	// origin hits) actually pools, and responses are byte-identical either
	// way.
	DisableReuse bool

	// pools holds one keep-alive pool per vantage, created lazily; the
	// pool is shared by every concurrent worker fetching from that
	// vantage, which is the whole point — the URL list multiplexes over a
	// handful of live connections instead of dialing per request.
	poolMu sync.Mutex
	pools  map[*Vantage]*vantagePool
}

// vantagePool pins a keep-alive pool to the virtual instant its idle
// connections were parked at. Interception is a dial-time decision, so a
// connection must not sleep across a clock advance and wake up on the
// other side of a policy window (YemenNet blocks by time of day) — when
// the clock has moved, the idle set is flushed and fetches re-dial
// through the interception path.
type vantagePool struct {
	pool *httpwire.ConnPool
	at   time.Time
}

// classifier is the default-corpus block-page classifier every client
// shares, built once: it is immutable and safe for concurrent use, so
// there is no reason to rebuild the corpus's detectors per comparison.
var classifier = sync.OnceValue(func() *blockpage.Classifier { return blockpage.NewClassifier(nil) })

// engineConfig resolves the pool configuration for TestList. The engine
// imposes no extra per-item timeout: each fetch already bounds itself via
// Config.Timeout, and one URL test is two fetches.
func (c *Client) engineConfig() engine.Config {
	cfg := c.Config
	cfg.Workers = cfg.WorkersOr(DefaultMeasureWorkers)
	cfg.Timeout = 0
	return cfg
}

// TestURL measures one URL from both vantages and compares.
func (c *Client) TestURL(ctx context.Context, rawurl string) Result {
	res := Result{URL: rawurl, TestedAt: c.Field.Host.Network().Clock().Now()}
	res.Field = c.fetch(ctx, c.Field, rawurl)
	res.Lab = c.fetch(ctx, c.Lab, rawurl)
	res.Verdict, res.BlockMatch, res.Matched = c.compare(res.Field, res.Lab)
	return res
}

// TestList measures every URL through the shared worker pool and returns
// results in list order (§4.1 tests "short lists of URLs that are
// amenable to manual analysis", so the lists are small but each URL costs
// two fetches — parallelism pays). A cancelled context truncates the
// tail: undispatched URLs are dropped, matching the old serial behavior.
//
// A transport-degraded comparison (field or lab fetch error without a
// conclusive block page) is returned to the engine as an item error, so
// the configured RetryPolicy re-tests the URL; if every attempt stays
// degraded the last attempt's Result is still delivered — callers get a
// partial result to report, never a silent hole. A configured Breaker
// (engine.WithBreaker) stops the retry burn per URL once its circuit
// opens.
func (c *Client) TestList(ctx context.Context, urls []string) []Result {
	cfg := c.engineConfig()
	// Each index is one worker's item, so last[i] is written only by the
	// worker that owns it — no locking, and results stay deterministic.
	last := make([]Result, len(urls))
	idxs := make([]int, len(urls))
	for i := range idxs {
		idxs[i] = i
	}
	// Breaker keys are scoped to the field vantage: concurrent TestList
	// runs from different vantages (characterization runs every ISP in
	// parallel) must not share circuit state for a URL, or whether one
	// vantage's failures suppress another's measurement would depend on
	// worker scheduling and break run determinism.
	vantage := ""
	if c.Field != nil {
		vantage = c.Field.Name
	}
	results := engine.MapResults(ctx, cfg, StageMeasure, idxs, func(ctx context.Context, i int) (Result, error) {
		u := urls[i]
		key := "measure:" + vantage + ":" + u
		if !cfg.Breaker.Allow(key) {
			return Result{}, engine.Fatal(fmt.Errorf("measure %s: %w", u, engine.ErrCircuitOpen))
		}
		r := c.TestURL(ctx, u)
		last[i] = r
		if detail, degraded := r.Degraded(); degraded {
			err := fmt.Errorf("measure %s: %s", u, detail)
			cfg.Breaker.Record(key, err)
			return Result{}, err
		}
		cfg.Breaker.Record(key, nil)
		return r, nil
	})
	out := make([]Result, 0, len(urls))
	for i, r := range results {
		if r.Err != nil {
			// Keep the last attempt's partial result; an item with no
			// recorded attempt (cancelled before dispatch) has none.
			if last[i].URL != "" {
				out = append(out, last[i])
			}
			continue
		}
		out = append(out, r.Value)
	}
	return out
}

// poolFor returns the vantage's keep-alive pool, creating it on first
// use and flushing its idle connections when the virtual clock has
// advanced since they were parked. Returns nil when reuse is disabled.
//
// The flush-on-advance pinning applies only to discrete (Manual) clocks:
// there a time jump means the simulated world may have changed underneath
// the parked connections. Under a wall clock time flows on every call, so
// pinning would flush the pool before any connection could ever be
// reused.
func (c *Client) poolFor(v *Vantage) *httpwire.ConnPool {
	if c.DisableReuse || v == nil || v.Host == nil {
		return nil
	}
	clk := v.Host.Network().Clock()
	now := clk.Now()
	_, wall := clk.(simclock.System)
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	if c.pools == nil {
		c.pools = make(map[*Vantage]*vantagePool)
	}
	vp, ok := c.pools[v]
	if !ok {
		vp = &vantagePool{pool: httpwire.NewConnPool(0), at: now}
		c.pools[v] = vp
	}
	if !wall && !vp.at.Equal(now) {
		vp.pool.CloseIdle()
		vp.at = now
	}
	return vp.pool
}

// CloseIdle drops every pooled idle connection (all vantages). Call
// between measurement rounds when the world underneath is about to
// change — e.g. the monitor closes idle connections before applying
// churn so no fetch rides a connection into a removed host.
func (c *Client) CloseIdle() {
	c.poolMu.Lock()
	pools := make([]*httpwire.ConnPool, 0, len(c.pools))
	for _, vp := range c.pools {
		pools = append(pools, vp.pool)
	}
	c.poolMu.Unlock()
	for _, p := range pools {
		p.CloseIdle()
	}
}

// ReuseStats sums connection-reuse counters across every vantage pool:
// exchanges served by a pooled connection, and connections parked for
// reuse.
func (c *Client) ReuseStats() (reused, pooled uint64) {
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	for _, vp := range c.pools {
		r, k := vp.pool.Stats()
		reused += r
		pooled += k
	}
	return reused, pooled
}

func (c *Client) fetch(ctx context.Context, v *Vantage, rawurl string) Fetch {
	chain, err := v.PooledClient(c.Config.TimeoutOr(DefaultFetchTimeout), c.poolFor(v)).GetFollow(ctx, rawurl)
	return Fetch{Chain: chain, Err: err}
}

// compare implements the verdict logic.
func (c *Client) compare(field, lab Fetch) (Verdict, blockpage.Match, bool) {
	// A recognized block page in the field chain is conclusive regardless
	// of what the lab saw.
	if m, ok := classifier().ClassifyChain(field.Chain); ok {
		return Blocked, m, true
	}
	switch {
	case field.OK() && lab.OK():
		return Accessible, blockpage.Match{}, false
	case !lab.OK():
		// Without a working lab fetch, field failures say nothing about
		// censorship.
		return Unreachable, blockpage.Match{}, false
	case field.Err != nil:
		return Anomaly, blockpage.Match{}, false
	default:
		// Field got a response, no block page matched, but the lab
		// succeeded where the field did not (4xx/5xx divergence).
		return Anomaly, blockpage.Match{}, false
	}
}

// ConsistencyReport describes how stable blocking was across repeated
// runs of the same list (§4.4 challenge 2).
type ConsistencyReport struct {
	Runs int
	// FlakyURLs lists URLs whose verdict changed between runs.
	FlakyURLs []string
	// AlwaysBlocked and NeverBlocked list URLs with stable verdicts.
	AlwaysBlocked []string
	NeverBlocked  []string
}

// Consistent reports whether no URL changed verdict.
func (r *ConsistencyReport) Consistent() bool { return len(r.FlakyURLs) == 0 }

// AnalyzeConsistency compares verdicts across repeated runs.
func AnalyzeConsistency(runs [][]Result) ConsistencyReport {
	rep := ConsistencyReport{Runs: len(runs)}
	if len(runs) == 0 {
		return rep
	}
	type tally struct{ blocked, total int }
	byURL := make(map[string]*tally)
	var order []string
	for _, run := range runs {
		for _, r := range run {
			t, ok := byURL[r.URL]
			if !ok {
				t = &tally{}
				byURL[r.URL] = t
				order = append(order, r.URL)
			}
			t.total++
			if r.Verdict == Blocked {
				t.blocked++
			}
		}
	}
	for _, u := range order {
		t := byURL[u]
		switch {
		case t.blocked == 0:
			rep.NeverBlocked = append(rep.NeverBlocked, u)
		case t.blocked == t.total:
			rep.AlwaysBlocked = append(rep.AlwaysBlocked, u)
		default:
			rep.FlakyURLs = append(rep.FlakyURLs, u)
		}
	}
	return rep
}
