package common

import (
	"bufio"
	"context"
	"net/netip"
	"strings"
	"testing"
	"time"

	"filtermap/internal/categorydb"
	"filtermap/internal/httpwire"
	"filtermap/internal/netsim"
	"filtermap/internal/simclock"
)

func TestSyncViewLiveWhenIntervalZero(t *testing.T) {
	clock := simclock.NewManual(time.Time{})
	db := categorydb.New("v", clock)
	db.AddCategory(categorydb.Category{Code: "c", Name: "C"})
	v := &SyncView{DB: db}
	db.AddDomain("x.com", "c") //nolint:errcheck // category exists
	if _, ok := v.Lookup("x.com", clock.Now()); !ok {
		t.Fatal("live view missed base entry")
	}
}

func TestSyncViewLagsBySchedule(t *testing.T) {
	clock := simclock.NewManual(time.Time{})
	db := categorydb.New("v", clock)
	db.AddCategory(categorydb.Category{Code: "c", Name: "C"})
	anchor := clock.Now()
	v := &SyncView{DB: db, Interval: 24 * time.Hour, Anchor: anchor}

	// A submission decided at +3d becomes visible only at the next sync
	// after +3d, i.e. +4d on this daily schedule... but the +3d00h sync
	// catches a decision at exactly +3d.
	db.Submit("http://x.com/", "c", netip.Addr{}, "") //nolint:errcheck // valid

	clock.Advance(simclock.Days(3) - time.Hour) // +2d23h: last sync +2d < decision
	if _, ok := v.Lookup("x.com", clock.Now()); ok {
		t.Fatal("entry visible before the sync that includes it")
	}
	clock.Advance(2 * time.Hour) // +3d01h: last sync +3d >= decision
	if _, ok := v.Lookup("x.com", clock.Now()); !ok {
		t.Fatal("entry not visible after covering sync")
	}
}

func TestSyncViewBeforeAnchorIsLive(t *testing.T) {
	clock := simclock.NewManual(time.Time{})
	db := categorydb.New("v", clock)
	db.AddCategory(categorydb.Category{Code: "c", Name: "C"})
	db.AddDomain("x.com", "c") //nolint:errcheck // category exists
	v := &SyncView{DB: db, Interval: 24 * time.Hour, Anchor: clock.Now().Add(simclock.Days(30))}
	if _, ok := v.Lookup("x.com", clock.Now()); !ok {
		t.Fatal("pre-anchor view missed shipped entry")
	}
}

func TestSyncViewFrozen(t *testing.T) {
	clock := simclock.NewManual(time.Time{})
	db := categorydb.New("v", clock)
	db.AddCategory(categorydb.Category{Code: "c", Name: "C"})
	frozen := clock.Now().Add(simclock.Days(1))
	v := &SyncView{DB: db, FrozenAt: frozen}

	db.Submit("http://x.com/", "c", netip.Addr{}, "") //nolint:errcheck // decided at +3d > freeze
	clock.Advance(simclock.Days(10))
	if _, ok := v.Lookup("x.com", clock.Now()); ok {
		t.Fatal("frozen view saw a post-cutoff update")
	}
}

func TestLicenseModel(t *testing.T) {
	var nilModel *LicenseModel
	if !nilModel.FilteringActive(time.Now()) {
		t.Fatal("nil license must always be active")
	}
	m := &LicenseModel{MaxConcurrent: 100, Load: func(time.Time) int { return 101 }}
	if m.FilteringActive(time.Now()) {
		t.Fatal("over-capacity license reported active")
	}
	m.Load = func(time.Time) int { return 100 }
	if !m.FilteringActive(time.Now()) {
		t.Fatal("at-capacity license reported inactive")
	}
}

func TestDiurnalLoadShape(t *testing.T) {
	load := DiurnalLoad(1000, 9000, 14)
	day := time.Date(2013, 3, 1, 0, 0, 0, 0, time.UTC)
	peak := load(day.Add(14 * time.Hour))
	trough := load(day.Add(2 * time.Hour))
	if peak != 9000 {
		t.Fatalf("peak load = %d, want 9000", peak)
	}
	if trough != 1000 {
		t.Fatalf("trough load = %d, want 1000", trough)
	}
	// Monotone decrease from peak to trough on one side.
	prev := peak
	for h := 15; h <= 26; h++ {
		cur := load(day.Add(time.Duration(h) * time.Hour))
		if cur > prev {
			t.Fatalf("load increased moving away from peak at hour %d: %d > %d", h, cur, prev)
		}
		prev = cur
	}
	// Swapped bounds are normalized.
	swapped := DiurnalLoad(9000, 1000, 14)
	if swapped(day.Add(14*time.Hour)) != 9000 {
		t.Fatal("swapped bounds not normalized")
	}
}

func TestCategoryPolicy(t *testing.T) {
	p := NewCategoryPolicy("a", "b")
	if !p.Enabled("a") || !p.Enabled("b") || p.Enabled("c") {
		t.Fatal("initial policy wrong")
	}
	p.enabled["c"] = true
	delete(p.enabled, "a")
	if p.Enabled("a") || !p.Enabled("c") {
		t.Fatal("enable/disable wrong")
	}
	if len(p.enabled) != 2 {
		t.Fatalf("enabled = %v", p.enabled)
	}
}

func TestCategoryPolicyCustomList(t *testing.T) {
	p := NewCategoryPolicy()
	p.AddCustom("banned.org", "natl-list")
	cases := map[string]bool{
		"banned.org":        true,
		"www.banned.org":    true,
		"deep.a.banned.org": true,
		"unbanned.org":      false,
		"notbanned.org":     false,
	}
	for d, want := range cases {
		_, ok := p.CustomCategory(d)
		if ok != want {
			t.Errorf("CustomCategory(%q) = %v, want %v", d, ok, want)
		}
	}
	if label, _ := p.CustomCategory("www.banned.org"); label != "natl-list" {
		t.Fatalf("label = %q", label)
	}
}

// fakeEngine blocks one hostname.
type fakeEngine struct{ blockHost string }

func (f *fakeEngine) ProductName() string { return "FakeFilter" }
func (f *fakeEngine) Decide(req *httpwire.Request, at time.Time) Decision {
	if req.Hostname() == f.blockHost {
		return Decision{
			Block:    true,
			Category: "test",
			Response: httpwire.NewResponse(403, httpwire.NewHeader("X-Blocked-By", "FakeFilter"), []byte("blocked by fake")),
		}
	}
	return Pass
}

// gatewayFixture: an ISP with a Gateway interceptor and an origin.
func gatewayFixture(t *testing.T, gwMut func(*Gateway)) (*netsim.Network, *netsim.Host) {
	t.Helper()
	n := netsim.New(nil)
	t.Cleanup(n.Close)
	isp, _ := n.AddISP("ISP")
	mb, err := n.AddHost(netip.MustParseAddr("10.0.1.1"), "filter.example", isp)
	if err != nil {
		t.Fatal(err)
	}
	mb.SetBypassIntercept(true)
	inside, err := n.AddHost(netip.MustParseAddr("10.0.2.2"), "", isp)
	if err != nil {
		t.Fatal(err)
	}
	origin, err := n.AddHost(netip.MustParseAddr("192.0.2.1"), "origin.example", nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpwire.Server{Handler: httpwire.HandlerFunc(func(req *httpwire.Request) *httpwire.Response {
		return httpwire.NewResponse(200, httpwire.NewHeader("Server", "origin/1.0"), []byte("origin content"))
	})}
	if _, err := origin.Serve(80, netsim.Public, srv); err != nil {
		t.Fatal(err)
	}
	blockedOrigin, err := n.AddHost(netip.MustParseAddr("192.0.2.2"), "bad.example", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blockedOrigin.Serve(80, netsim.Public, srv); err != nil {
		t.Fatal(err)
	}

	gw := &Gateway{Host: mb, Engine: &fakeEngine{blockHost: "bad.example"}, ViaToken: "1.1 filter.example (FakeFilter)"}
	if gwMut != nil {
		gwMut(gw)
	}
	isp.SetInterceptor(gw)
	return n, inside
}

func get(t *testing.T, from *netsim.Host, rawurl string) *httpwire.Response {
	t.Helper()
	client := &httpwire.Client{Dial: from.Dialer(), Timeout: 5 * time.Second}
	resp, err := client.Get(context.Background(), rawurl)
	if err != nil {
		t.Fatalf("GET %s: %v", rawurl, err)
	}
	return resp
}

func TestGatewayForwardsAllowedTraffic(t *testing.T) {
	_, inside := gatewayFixture(t, nil)
	resp := get(t, inside, "http://origin.example/")
	if resp.StatusCode != 200 || string(resp.Body) != "origin content" {
		t.Fatalf("resp = %d %q", resp.StatusCode, resp.Body)
	}
	if !strings.Contains(resp.Header.Get("Via"), "FakeFilter") {
		t.Fatal("forwarded response missing Via token")
	}
}

func TestGatewayBlocksPerEngine(t *testing.T) {
	_, inside := gatewayFixture(t, nil)
	resp := get(t, inside, "http://bad.example/")
	if resp.StatusCode != 403 || resp.Header.Get("X-Blocked-By") != "FakeFilter" {
		t.Fatalf("resp = %d %v", resp.StatusCode, resp.Header)
	}
}

func TestGatewayOnlyInterceptsConfiguredPorts(t *testing.T) {
	n, inside := gatewayFixture(t, nil)
	// A non-HTTP port is not intercepted: direct conn refused since no
	// listener, rather than a block page.
	origin, _ := n.Host(netip.MustParseAddr("192.0.2.2"))
	_ = origin
	if _, err := inside.Dial(context.Background(), netip.MustParseAddr("192.0.2.2"), 2222); err == nil {
		t.Fatal("dial to closed non-intercepted port succeeded")
	}
}

func TestGatewayFailsOpenWhenLicenseExhausted(t *testing.T) {
	_, inside := gatewayFixture(t, func(g *Gateway) {
		g.License = &LicenseModel{MaxConcurrent: 1, Load: func(time.Time) int { return 2 }}
	})
	resp := get(t, inside, "http://bad.example/")
	if resp.StatusCode != 200 {
		t.Fatalf("fail-open resp = %d, want 200", resp.StatusCode)
	}
	if resp.Header.Has("Via") {
		t.Fatal("fail-open traffic should bypass the gateway entirely")
	}
}

func TestGatewayCallbacks(t *testing.T) {
	var forwarded, blockedCat string
	_, inside := gatewayFixture(t, func(g *Gateway) {
		g.OnForward = func(req *httpwire.Request) { forwarded = req.Hostname() }
		g.OnBlock = func(req *httpwire.Request, cat string) { blockedCat = cat }
	})
	get(t, inside, "http://origin.example/")
	get(t, inside, "http://bad.example/")
	if forwarded != "origin.example" {
		t.Fatalf("OnForward saw %q", forwarded)
	}
	if blockedCat != "test" {
		t.Fatalf("OnBlock saw %q", blockedCat)
	}
}

func TestGatewayUpstreamUnreachable(t *testing.T) {
	_, inside := gatewayFixture(t, nil)
	client := &httpwire.Client{Dial: inside.Dialer(), Timeout: 5 * time.Second}
	// Host with DNS but no network presence: gateway forwards and fails.
	req, _ := httpwire.NewRequest("GET", "http://origin.example:81/")
	_ = req
	resp, err := client.Get(context.Background(), "http://origin.example:81/")
	// Port 81 is not intercepted (only 80), so the dial itself fails.
	if err == nil {
		t.Fatalf("expected dial error, got %d", resp.StatusCode)
	}
}

func TestGatewayAnonymizeScrubs(t *testing.T) {
	_, inside := gatewayFixture(t, func(g *Gateway) {
		g.Anonymize = true
		g.BrandTokens = []string{"FakeFilter", "blocked by fake"}
	})
	resp := get(t, inside, "http://bad.example/")
	if resp.Header.Has("X-Blocked-By") == false && resp.StatusCode == 403 {
		// X-Blocked-By is not in the scrub list; only standard identity
		// headers are dropped. Body tokens must be gone though.
	}
	if strings.Contains(string(resp.Body), "FakeFilter") || strings.Contains(string(resp.Body), "blocked by fake") {
		t.Fatalf("brand tokens survived scrubbing: %q", resp.Body)
	}
	if resp.Header.Has("Server") || resp.Header.Has("Via") {
		t.Fatal("identity headers survived scrubbing")
	}
}

func TestExplicitProxyHandler(t *testing.T) {
	n, _ := gatewayFixture(t, nil)
	// Reach the gateway's explicit proxy via a listener on the filter
	// host.
	mb, _ := n.Host(netip.MustParseAddr("10.0.1.1"))
	var gw *Gateway
	// Rebuild a gateway for the explicit test (the fixture's interceptor
	// is inaccessible); engine blocks bad.example.
	gw = &Gateway{Host: mb, Engine: &fakeEngine{blockHost: "bad.example"}, ViaToken: "1.1 explicit (FakeFilter)"}
	srv := &httpwire.Server{Handler: gw.ExplicitProxyHandler()}
	if _, err := mb.Serve(3128, netsim.Public, srv); err != nil {
		t.Fatal(err)
	}

	outside, err := n.AddHost(netip.MustParseAddr("198.51.100.9"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &httpwire.Client{
		Dial:    outside.Dialer(),
		Timeout: 5 * time.Second,
		Proxy:   &httpwire.Proxy{Host: "10.0.1.1", Port: 3128},
	}
	resp, err := client.Get(context.Background(), "http://origin.example/")
	if err != nil {
		t.Fatalf("proxied GET: %v", err)
	}
	if resp.StatusCode != 200 || string(resp.Body) != "origin content" {
		t.Fatalf("proxied resp = %d %q", resp.StatusCode, resp.Body)
	}
	// Blocked through the proxy too.
	resp, err = client.Get(context.Background(), "http://bad.example/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 403 {
		t.Fatalf("proxied blocked resp = %d", resp.StatusCode)
	}
	// Origin-form requests are rejected by the explicit proxy.
	direct, err := outside.Dial(context.Background(), netip.MustParseAddr("10.0.1.1"), 3128)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	raw := "GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
	direct.Write([]byte(raw)) //nolint:errcheck // test
	r, err := httpwire.ReadResponse(bufio.NewReader(direct), false)
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != 400 {
		t.Fatalf("origin-form via proxy = %d, want 400", r.StatusCode)
	}
}

func TestScrubResponse(t *testing.T) {
	resp := httpwire.NewResponse(403,
		httpwire.NewHeader("Server", "McAfee Web Gateway", "Via-Proxy", "mwg1", "Content-Type", "text/html"),
		[]byte("<title>McAfee Web Gateway - Notification</title><p>URL Blocked by SmartFilter</p>"))
	ScrubResponse(resp, []string{"McAfee", "Web Gateway", "SmartFilter"})
	if resp.Header.Has("Server") || resp.Header.Has("Via-Proxy") {
		t.Fatal("identity headers survived")
	}
	if resp.Header.Get("Content-Type") != "text/html" {
		t.Fatal("innocent header removed")
	}
	body := string(resp.Body)
	for _, tok := range []string{"McAfee", "Web Gateway", "SmartFilter"} {
		if strings.Contains(body, tok) {
			t.Fatalf("token %q survived: %s", tok, body)
		}
	}
	if ScrubResponse(nil, nil) != nil {
		t.Fatal("nil scrub should return nil")
	}
}

func TestScrubHandler(t *testing.T) {
	h := ScrubHandler(httpwire.HandlerFunc(func(*httpwire.Request) *httpwire.Response {
		return httpwire.NewResponse(200, httpwire.NewHeader("Server", "Brand"), []byte("Brand page"))
	}), []string{"Brand"})
	req, _ := httpwire.NewRequest("GET", "http://x/")
	resp := h.Handle(req)
	if resp.Header.Has("Server") || strings.Contains(string(resp.Body), "Brand") {
		t.Fatal("scrub handler leaked brand")
	}
}

func TestHTMLHelpers(t *testing.T) {
	page := string(HTMLPage("A<B", "<p>body</p>"))
	if !strings.Contains(page, "<title>A&lt;B</title>") {
		t.Fatalf("title not escaped: %s", page)
	}
	if htmlEscape(`<a href="x">&`) != "&lt;a href=&quot;x&quot;&gt;&amp;" {
		t.Fatalf("escape = %q", htmlEscape(`<a href="x">&`))
	}
	if Para("n=%d", 7) != "<p>n=7</p>" {
		t.Fatalf("para = %q", Para("n=%d", 7))
	}
}
