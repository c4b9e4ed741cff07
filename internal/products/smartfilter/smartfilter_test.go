package smartfilter

import (
	"context"
	"net/netip"
	"strings"
	"testing"
	"time"

	"filtermap/internal/categorydb"
	"filtermap/internal/httpwire"
	"filtermap/internal/netsim"
	"filtermap/internal/products/common"
	"filtermap/internal/simclock"
)

func newEngine(t *testing.T) (*Engine, *categorydb.DB, *simclock.Manual) {
	t.Helper()
	clock := simclock.NewManual(time.Time{})
	db := NewDatabase(clock)
	if err := db.AddDomain("adult-site.net", CatPornography); err != nil {
		t.Fatal(err)
	}
	if err := db.AddDomain("proxy-site.net", CatAnonymizers); err != nil {
		t.Fatal(err)
	}
	engine := &Engine{
		View:        &common.SyncView{DB: db},
		Policy:      common.NewCategoryPolicy(CatPornography),
		GatewayName: "mwg1.example",
	}
	return engine, db, clock
}

func req(t *testing.T, rawurl string) *httpwire.Request {
	t.Helper()
	r, err := httpwire.NewRequest("GET", rawurl)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBlockPageShape(t *testing.T) {
	engine, _, clock := newEngine(t)
	d := engine.Decide(req(t, "http://adult-site.net/x"), clock.Now())
	if !d.Block || d.Category != CatPornography {
		t.Fatalf("decision = %+v", d)
	}
	resp := d.Response
	if resp.StatusCode != 403 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// Table 2's two signatures: the exact-case Via-Proxy header and the
	// MWG title.
	if raw, ok := resp.Header.RawName("Via-Proxy"); !ok || raw != "Via-Proxy" {
		t.Fatalf("Via-Proxy header = %q, %v", raw, ok)
	}
	body := string(resp.Body)
	if !strings.Contains(body, "<title>McAfee Web Gateway - Notification</title>") {
		t.Fatal("block page missing MWG title")
	}
	if !strings.Contains(body, "URL Blocked") {
		t.Fatal("block page missing 'URL Blocked' heading")
	}
}

func TestCategoryNotEnabledPasses(t *testing.T) {
	engine, _, clock := newEngine(t)
	// Anonymizers categorized but not enabled (the Saudi configuration,
	// challenge 1).
	if d := engine.Decide(req(t, "http://proxy-site.net/"), clock.Now()); d.Block {
		t.Fatal("blocked a category the policy does not enable")
	}
}

func TestSharedDatabaseDifferentPolicies(t *testing.T) {
	// One master database, two deployments (§4.3: the Saudi central
	// policy and Etisalat differ in categories, not in data).
	clock := simclock.NewManual(time.Time{})
	db := NewDatabase(clock)
	db.AddDomain("adult-site.net", CatPornography) //nolint:errcheck // category exists
	db.AddDomain("proxy-site.net", CatAnonymizers) //nolint:errcheck // category exists

	saudi := &Engine{View: &common.SyncView{DB: db}, Policy: common.NewCategoryPolicy(CatPornography)}
	uae := &Engine{View: &common.SyncView{DB: db}, Policy: common.NewCategoryPolicy(CatPornography, CatAnonymizers)}

	r := &httpwire.Request{Method: "GET", Target: "/", Header: httpwire.NewHeader("Host", "proxy-site.net")}
	if d := saudi.Decide(r, clock.Now()); d.Block {
		t.Fatal("Saudi blocked proxies")
	}
	if d := uae.Decide(r, clock.Now()); !d.Block {
		t.Fatal("UAE passed proxies")
	}
}

func TestEngineRunsOnBlueCoatChassis(t *testing.T) {
	// §4.5 challenge 3: the engine is chassis-independent — a common
	// Gateway with ProxySG Via plus a SmartFilter engine yields McAfee
	// block pages behind Blue Coat forwarding headers.
	engine, _, clock := newEngine(t)
	n := netsim.New(clock)
	t.Cleanup(n.Close)
	isp, _ := n.AddISP("Etisalat")
	mb, _ := n.AddHost(netip.MustParseAddr("94.56.1.1"), "proxy1.example", isp)
	mb.SetBypassIntercept(true)
	inside, _ := n.AddHost(netip.MustParseAddr("94.56.2.2"), "", isp)

	origin, _ := n.AddHost(netip.MustParseAddr("192.0.2.1"), "adult-site.net", nil)
	srv := &httpwire.Server{Handler: httpwire.HandlerFunc(func(*httpwire.Request) *httpwire.Response {
		return httpwire.NewResponse(200, nil, []byte("adult content"))
	})}
	if _, err := origin.Serve(80, netsim.Public, srv); err != nil {
		t.Fatal(err)
	}

	gw := &common.Gateway{Host: mb, Engine: engine, ViaToken: "1.1 proxy1.example (Blue Coat ProxySG 6.5)"}
	isp.SetInterceptor(gw)

	client := &httpwire.Client{Dial: inside.Dialer(), Timeout: 5 * time.Second}
	resp, err := client.Get(context.Background(), "http://adult-site.net/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 403 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(resp.Body), "McAfee Web Gateway") {
		t.Fatal("block page is not McAfee's")
	}
}

func installFixture(t *testing.T, cfg Config) *netsim.Host {
	t.Helper()
	clock := simclock.NewManual(time.Time{})
	n := netsim.New(clock)
	t.Cleanup(n.Close)
	isp, _ := n.AddISP("ISP")
	host, _ := n.AddHost(netip.MustParseAddr("10.0.1.1"), "mwg1.example", isp)
	if cfg.Engine == nil {
		db := NewDatabase(clock)
		cfg.Engine = &Engine{View: &common.SyncView{DB: db}, Policy: common.NewCategoryPolicy()}
	}
	if _, err := Install(host, cfg); err != nil {
		t.Fatal(err)
	}
	outside, _ := n.AddHost(netip.MustParseAddr("198.51.100.9"), "", nil)
	return outside
}

func TestConsoleBanner(t *testing.T) {
	outside := installFixture(t, Config{Name: "mwg1.example"})
	client := &httpwire.Client{Dial: outside.Dialer(), Timeout: 5 * time.Second}
	for _, u := range []string{"http://10.0.1.1:4712/", "http://10.0.1.1/"} {
		resp, err := client.Get(context.Background(), u)
		if err != nil {
			t.Fatalf("GET %s: %v", u, err)
		}
		if !strings.Contains(string(resp.Body), "McAfee Web Gateway") {
			t.Fatalf("console at %s missing banner", u)
		}
		if !resp.Header.Has("Via-Proxy") {
			t.Fatalf("console at %s missing Via-Proxy", u)
		}
	}
}

func TestConsoleScrubbed(t *testing.T) {
	outside := installFixture(t, Config{Name: "mwg1.example", Scrub: true})
	client := &httpwire.Client{Dial: outside.Dialer(), Timeout: 5 * time.Second}
	resp, err := client.Get(context.Background(), "http://10.0.1.1:4712/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Has("Via-Proxy") || resp.Header.Has("Server") {
		t.Fatal("scrubbed console leaks identity headers")
	}
	if strings.Contains(string(resp.Body), "McAfee") {
		t.Fatal("scrubbed console leaks brand")
	}
}

func TestSubmissionPortal(t *testing.T) {
	clock := simclock.NewManual(time.Time{})
	n := netsim.New(clock)
	t.Cleanup(n.Close)
	db := NewDatabase(clock)
	db.AddDomain("adult-site.net", CatPornography) //nolint:errcheck // category exists

	portal, _ := n.AddHost(netip.MustParseAddr("161.69.1.10"), "trustedsource.example", nil)
	srv := &httpwire.Server{Handler: SubmissionPortalHandler(db)}
	if _, err := portal.Serve(80, netsim.Public, srv); err != nil {
		t.Fatal(err)
	}
	lab, _ := n.AddHost(netip.MustParseAddr("128.100.50.10"), "", nil)
	client := &httpwire.Client{Dial: lab.Dialer(), Timeout: 5 * time.Second}
	ctx := context.Background()

	// url-check reports existing categorization.
	resp, err := client.Get(ctx, "http://trustedsource.example/url-check?url=http://adult-site.net/")
	if err != nil || !strings.Contains(string(resp.Body), "Pornography") {
		t.Fatalf("url-check = %v %v", resp, err)
	}
	resp, _ = client.Get(ctx, "http://trustedsource.example/url-check?url=http://fresh.info/")
	if !strings.Contains(string(resp.Body), "not currently categorized") {
		t.Fatalf("url-check fresh = %s", resp.Body)
	}

	// Submission flow (§4.3).
	resp, err = SubmitViaPortal(ctx, client, "trustedsource.example", "http://fresh.info/", CatPornography, "r@lab.example")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("submit = %v, %v", resp, err)
	}
	clock.Advance(db.ReviewDelay)
	if cat, _ := db.Lookup("fresh.info"); cat != CatPornography {
		t.Fatalf("post-review category = %q", cat)
	}
	// GET on the submit endpoint serves the form.
	resp, _ = client.Get(ctx, "http://trustedsource.example/url-submit")
	if resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "Submit a Site") {
		t.Fatalf("form = %d", resp.StatusCode)
	}
	// Status endpoint.
	resp, _ = client.Get(ctx, "http://trustedsource.example/url-submit/status?id=1")
	if !strings.Contains(string(resp.Body), "accepted") {
		t.Fatalf("status = %s", resp.Body)
	}
}

func TestTaxonomyCoversPaperCategories(t *testing.T) {
	codes := map[string]bool{}
	for _, c := range DefaultTaxonomy() {
		codes[c.Code] = true
	}
	for _, c := range []string{CatPornography, CatAnonymizers} {
		if !codes[c] {
			t.Errorf("taxonomy missing %q (used by §4.3 case studies)", c)
		}
	}
}
