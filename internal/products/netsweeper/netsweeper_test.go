package netsweeper

import (
	"context"
	"net/netip"
	"net/url"
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
	if err := db.AddDomain("proxy-site.net", CatProxyAnonymizer); err != nil {
		t.Fatal(err)
	}
	engine := &Engine{
		View:     &common.SyncView{DB: db},
		Policy:   common.NewCategoryPolicy(CatProxyAnonymizer, CatPornography),
		DenyHost: "ns1.example:8080",
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

func TestTaxonomyHas66NumberedCategories(t *testing.T) {
	cats := DefaultTaxonomy()
	if len(cats) != 66 {
		t.Fatalf("taxonomy has %d categories, want 66 (§4.4)", len(cats))
	}
	seen := map[int]bool{}
	for _, c := range cats {
		if c.Number < 1 || c.Number > 66 || seen[c.Number] {
			t.Fatalf("bad category number %d", c.Number)
		}
		seen[c.Number] = true
	}
}

func TestPornographyIsCategory23(t *testing.T) {
	// §4.4: "denypagetests.netsweeper.com/category/catno/23 for
	// pornography".
	db := NewDatabase(simclock.NewManual(time.Time{}))
	c, ok := db.CategoryByNumber(23)
	if !ok || c.Code != CatPornography {
		t.Fatalf("catno 23 = %+v, want pornography", c)
	}
}

func TestDenyRedirectShape(t *testing.T) {
	engine, _, clock := newEngine(t)
	d := engine.Decide(req(t, "http://proxy-site.net/page?x=1"), clock.Now())
	if !d.Block {
		t.Fatal("not blocked")
	}
	resp := d.Response
	if resp.StatusCode != 302 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	u, err := url.Parse(loc)
	if err != nil {
		t.Fatalf("Location parse: %v", err)
	}
	if u.Host != "ns1.example:8080" || !strings.HasPrefix(u.Path, "/webadmin/deny/") {
		t.Fatalf("Location = %q", loc)
	}
	if u.Query().Get("cat") != "24" { // proxy-anonymizer's number
		t.Fatalf("cat param = %q", u.Query().Get("cat"))
	}
	if !strings.Contains(u.Query().Get("url"), "proxy-site.net") {
		t.Fatalf("url param = %q", u.Query().Get("url"))
	}
}

func TestDenyPageTestsSpecialCase(t *testing.T) {
	engine, _, clock := newEngine(t)
	// Blocked category number -> deny redirect.
	d := engine.Decide(req(t, "http://denypagetests.netsweeper.com/category/catno/24"), clock.Now())
	if !d.Block || d.Category != CatProxyAnonymizer {
		t.Fatalf("catno 24 decision = %+v", d)
	}
	// Unblocked category number -> pass.
	if d := engine.Decide(req(t, "http://denypagetests.netsweeper.com/category/catno/12"), clock.Now()); d.Block {
		t.Fatal("catno 12 blocked despite disabled category")
	}
	// Malformed path -> pass.
	if d := engine.Decide(req(t, "http://denypagetests.netsweeper.com/category/catno/zzz"), clock.Now()); d.Block {
		t.Fatal("garbage catno blocked")
	}
	// Tool disabled -> pass even for blocked categories (§4.4: "only
	// viable in networks where the tool has not been disabled").
	engine.DisableDenyPageTests = true
	if d := engine.Decide(req(t, "http://denypagetests.netsweeper.com/category/catno/24"), clock.Now()); d.Block {
		t.Fatal("deny-page tests answered despite being disabled")
	}
}

type fixture struct {
	net    *netsim.Network
	clock  *simclock.Manual
	db     *categorydb.DB
	inside *netsim.Host
	out    *netsim.Host
}

func installFixture(t *testing.T, mut func(*Config)) *fixture {
	t.Helper()
	clock := simclock.NewManual(time.Time{})
	n := netsim.New(clock)
	t.Cleanup(n.Close)
	db := NewDatabase(clock)
	db.AddDomain("proxy-site.net", CatProxyAnonymizer) //nolint:errcheck // category exists

	isp, _ := n.AddISP("YemenNet")
	filterHost, _ := n.AddHost(netip.MustParseAddr("10.0.1.1"), "ns1.example", isp)
	inside, _ := n.AddHost(netip.MustParseAddr("10.0.2.2"), "", isp)
	outside, _ := n.AddHost(netip.MustParseAddr("198.51.100.9"), "", nil)

	origin, _ := n.AddHost(netip.MustParseAddr("192.0.2.1"), "proxy-site.net", nil)
	srv := &httpwire.Server{Handler: httpwire.HandlerFunc(func(*httpwire.Request) *httpwire.Response {
		return httpwire.NewResponse(200, nil, []byte("glype page"))
	})}
	if _, err := origin.Serve(80, netsim.Public, srv); err != nil {
		t.Fatal(err)
	}
	fresh, _ := n.AddHost(netip.MustParseAddr("192.0.2.2"), "fresh.info", nil)
	if _, err := fresh.Serve(80, netsim.Public, srv); err != nil {
		t.Fatal(err)
	}

	cfg := Config{
		Name: "ns1.example",
		Engine: &Engine{
			View:   &common.SyncView{DB: db},
			Policy: common.NewCategoryPolicy(CatProxyAnonymizer),
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	gw, err := Install(filterHost, cfg)
	if err != nil {
		t.Fatal(err)
	}
	isp.SetInterceptor(gw)
	return &fixture{net: n, clock: clock, db: db, inside: inside, out: outside}
}

func TestEndToEndDenyFlow(t *testing.T) {
	f := installFixture(t, nil)
	client := &httpwire.Client{Dial: f.inside.Dialer(), Timeout: 5 * time.Second}
	chain, err := client.GetFollow(context.Background(), "http://proxy-site.net/")
	if err != nil {
		t.Fatalf("GetFollow: %v", err)
	}
	if len(chain) != 2 {
		t.Fatalf("chain = %d hops, want 2 (redirect + deny page)", len(chain))
	}
	if chain[0].StatusCode != 302 {
		t.Fatalf("hop 0 status = %d", chain[0].StatusCode)
	}
	deny := string(chain[1].Body)
	if !strings.Contains(deny, "This page has been denied") || !strings.Contains(deny, "Powered by Netsweeper") {
		t.Fatalf("deny page = %s", deny)
	}
	if !strings.Contains(deny, "Proxy Anonymizer") {
		t.Fatalf("deny page missing category name: %s", deny)
	}
}

func TestWebAdminConsole(t *testing.T) {
	f := installFixture(t, nil)
	client := &httpwire.Client{Dial: f.out.Dialer(), Timeout: 5 * time.Second}
	resp, err := client.Get(context.Background(), "http://10.0.1.1:8080/webadmin/")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp.Body), "Netsweeper WebAdmin") {
		t.Fatal("console missing title")
	}
	// Root redirects into /webadmin/.
	resp, err = client.Get(context.Background(), "http://10.0.1.1:8080/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 302 || !strings.Contains(resp.Header.Get("Location"), "/webadmin/") {
		t.Fatalf("root = %d %q", resp.StatusCode, resp.Header.Get("Location"))
	}
}

func TestAutoQueueCategorizesAccessedSites(t *testing.T) {
	f := installFixture(t, func(cfg *Config) {
		cfg.AutoQueue = true
	})
	f.db.SetClassifier(categorydb.ClassifierFunc(func(domain, u string) (string, bool) {
		if domain == "fresh.info" {
			return CatProxyAnonymizer, true
		}
		return "", false
	}))
	client := &httpwire.Client{Dial: f.inside.Dialer(), Timeout: 5 * time.Second}
	resp, err := client.Get(context.Background(), "http://fresh.info/")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("initial fetch = %v, %v", resp, err)
	}
	f.clock.Advance(f.db.ReviewDelay)
	resp, err = client.Get(context.Background(), "http://fresh.info/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 302 || !strings.Contains(resp.Header.Get("Location"), "/webadmin/deny/") {
		t.Fatalf("post-queue fetch = %d, want deny redirect", resp.StatusCode)
	}
}

func TestNoAutoQueueWhenDisabled(t *testing.T) {
	f := installFixture(t, nil) // AutoQueue false
	f.db.SetClassifier(categorydb.ClassifierFunc(func(domain, u string) (string, bool) {
		return CatProxyAnonymizer, true
	}))
	client := &httpwire.Client{Dial: f.inside.Dialer(), Timeout: 5 * time.Second}
	client.Get(context.Background(), "http://fresh.info/") //nolint:errcheck // test
	f.clock.Advance(simclock.Days(10))
	resp, err := client.Get(context.Background(), "http://fresh.info/")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("fetch = %v, %v (no-queue deployment must not learn)", resp, err)
	}
}

func TestTestASiteClassifiesAndReportsExisting(t *testing.T) {
	clock := simclock.NewManual(time.Time{})
	n := netsim.New(clock)
	t.Cleanup(n.Close)
	db := NewDatabase(clock)
	db.AddDomain("proxy-site.net", CatProxyAnonymizer) //nolint:errcheck // category exists
	db.SetClassifier(categorydb.ClassifierFunc(func(domain, u string) (string, bool) {
		if strings.HasSuffix(domain, ".info") {
			return CatProxyAnonymizer, true
		}
		return "", false
	}))
	portal, _ := n.AddHost(netip.MustParseAddr("66.207.1.10"), "netsweeper.example", nil)
	srv := &httpwire.Server{Handler: TestASiteHandler(db)}
	if _, err := portal.Serve(80, netsim.Public, srv); err != nil {
		t.Fatal(err)
	}
	lab, _ := n.AddHost(netip.MustParseAddr("128.100.50.10"), "", nil)
	client := &httpwire.Client{Dial: lab.Dialer(), Timeout: 5 * time.Second}
	ctx := context.Background()

	// Known site: current category reported, no new submission.
	resp, err := SubmitViaTestASite(ctx, client, "netsweeper.example", "http://proxy-site.net/", "", "")
	if err != nil || !strings.Contains(string(resp.Body), "Proxy Anonymizer") {
		t.Fatalf("known site = %v, %v", resp, err)
	}
	if len(db.Submissions()) != 0 {
		t.Fatal("known site created a submission")
	}

	// Fresh site: queued for classification (§4.4).
	resp, err = SubmitViaTestASite(ctx, client, "netsweeper.example", "http://starwasher.info/", "", "r@lab.example")
	if err != nil || !strings.Contains(string(resp.Body), "queued for classification") {
		t.Fatalf("fresh site = %v, %v", resp, err)
	}
	subs := db.Submissions()
	if len(subs) != 1 || subs[0].State != categorydb.Accepted || subs[0].Category != CatProxyAnonymizer {
		t.Fatalf("submission = %+v", subs)
	}
	clock.Advance(db.ReviewDelay)
	if cat, _ := db.Lookup("starwasher.info"); cat != CatProxyAnonymizer {
		t.Fatalf("post-review category = %q", cat)
	}
}

func TestDenyPageTestsOrigin(t *testing.T) {
	db := NewDatabase(simclock.NewManual(time.Time{}))
	h := DenyPageTestsHandler(db)
	resp := h.Handle(req(t, "http://denypagetests.netsweeper.com/category/catno/23"))
	if resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "NOT blocked") {
		t.Fatalf("catno page = %d %s", resp.StatusCode, resp.Body)
	}
	if !strings.Contains(string(resp.Body), "Pornography") {
		t.Fatal("catno page missing category name")
	}
	// Index page.
	resp = h.Handle(req(t, "http://denypagetests.netsweeper.com/"))
	if resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "Deny Page Tests") {
		t.Fatalf("index = %d", resp.StatusCode)
	}
}

func TestScrubKeepsStructuralPath(t *testing.T) {
	f := installFixture(t, func(cfg *Config) { cfg.Scrub = true })
	client := &httpwire.Client{Dial: f.inside.Dialer(), Timeout: 5 * time.Second}
	chain, err := client.GetFollow(context.Background(), "http://proxy-site.net/")
	if err != nil {
		t.Fatal(err)
	}
	// The deny redirect still points at /webadmin/deny (structural), but
	// the deny page body carries no brand.
	if !strings.Contains(chain[0].Header.Get("Location"), "/webadmin/deny/") {
		t.Fatal("scrubbing broke the deny redirect path")
	}
	if strings.Contains(string(chain[len(chain)-1].Body), "Netsweeper") {
		t.Fatal("scrubbed deny page leaks brand")
	}
}
