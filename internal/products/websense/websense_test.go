package websense

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
	if err := db.AddDomain("adult-site.net", CatAdultContent); err != nil {
		t.Fatal(err)
	}
	engine := &Engine{
		View:      &common.SyncView{DB: db},
		Policy:    common.NewCategoryPolicy(CatAdultContent),
		BlockHost: "wsg1.example",
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

func TestBlockRedirectShape(t *testing.T) {
	engine, _, clock := newEngine(t)
	d := engine.Decide(req(t, "http://adult-site.net/x"), clock.Now())
	if !d.Block || d.Category != CatAdultContent {
		t.Fatalf("decision = %+v", d)
	}
	resp := d.Response
	if resp.StatusCode != 302 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	u, err := url.Parse(resp.Header.Get("Location"))
	if err != nil {
		t.Fatal(err)
	}
	// Table 2's signature: host on port 15871, path blockpage.cgi,
	// parameter ws-session.
	if u.Port() != "15871" || u.Path != "/cgi-bin/blockpage.cgi" {
		t.Fatalf("Location = %q", resp.Header.Get("Location"))
	}
	if u.Query().Get("ws-session") == "" {
		t.Fatal("ws-session missing")
	}
}

func TestWsSessionDeterministic(t *testing.T) {
	engine, _, clock := newEngine(t)
	r := req(t, "http://adult-site.net/x")
	a := engine.Decide(r, clock.Now()).Response.Header.Get("Location")
	b := engine.Decide(r, clock.Now()).Response.Header.Get("Location")
	if a != b {
		t.Fatal("ws-session not deterministic for the same URL")
	}
	other := engine.Decide(req(t, "http://adult-site.net/other"), clock.Now()).Response.Header.Get("Location")
	session := func(loc string) string {
		u, err := url.Parse(loc)
		if err != nil {
			t.Fatal(err)
		}
		return u.Query().Get("ws-session")
	}
	if session(a) == session(other) {
		t.Fatal("distinct URLs share a ws-session")
	}
}

type fixture struct {
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
	db.AddDomain("adult-site.net", CatAdultContent) //nolint:errcheck // category exists

	isp, _ := n.AddISP("TexasUtility")
	filterHost, _ := n.AddHost(netip.MustParseAddr("10.0.1.1"), "wsg1.example", isp)
	inside, _ := n.AddHost(netip.MustParseAddr("10.0.2.2"), "", isp)
	outside, _ := n.AddHost(netip.MustParseAddr("198.51.100.9"), "", nil)

	origin, _ := n.AddHost(netip.MustParseAddr("192.0.2.1"), "adult-site.net", nil)
	srv := &httpwire.Server{Handler: httpwire.HandlerFunc(func(*httpwire.Request) *httpwire.Response {
		return httpwire.NewResponse(200, nil, []byte("adult content"))
	})}
	if _, err := origin.Serve(80, netsim.Public, srv); err != nil {
		t.Fatal(err)
	}

	cfg := Config{
		Name: "wsg1.example",
		Engine: &Engine{
			View:   &common.SyncView{DB: db},
			Policy: common.NewCategoryPolicy(CatAdultContent),
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
	return &fixture{clock: clock, db: db, inside: inside, out: outside}
}

func TestEndToEndBlockPageFlow(t *testing.T) {
	f := installFixture(t, nil)
	client := &httpwire.Client{Dial: f.inside.Dialer(), Timeout: 5 * time.Second}
	chain, err := client.GetFollow(context.Background(), "http://adult-site.net/")
	if err != nil {
		t.Fatalf("GetFollow: %v", err)
	}
	if len(chain) != 2 || chain[0].StatusCode != 302 {
		t.Fatalf("chain = %d hops", len(chain))
	}
	final := string(chain[1].Body)
	if !strings.Contains(final, "Content blocked by your organization's policy") {
		t.Fatalf("block page = %s", final)
	}
	if !strings.Contains(final, "Websense") {
		t.Fatal("block page missing brand")
	}
}

func TestLicenseFailOpen(t *testing.T) {
	f := installFixture(t, func(cfg *Config) {
		// Licensed for 100 seats against 1000 users from 10:00 to 14:00.
		cfg.License = &common.LicenseModel{
			MaxConcurrent: 100,
			Load: func(at time.Time) int {
				h := at.UTC().Hour()
				if h >= 10 && h < 14 {
					return 1000
				}
				return 50
			},
		}
	})
	client := &httpwire.Client{Dial: f.inside.Dialer(), Timeout: 5 * time.Second}
	ctx := context.Background()

	// 08:00: enforced.
	f.clock.Advance(8 * time.Hour)
	resp, err := client.Get(ctx, "http://adult-site.net/")
	if err != nil || resp.StatusCode != 302 {
		t.Fatalf("08:00 = %v, %v; want 302", resp, err)
	}
	// 11:00: license exhausted, §4.4: "no content would be filtered".
	f.clock.Advance(3 * time.Hour)
	resp, err = client.Get(ctx, "http://adult-site.net/")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("11:00 = %v, %v; want 200 fail-open", resp, err)
	}
	// 15:00: enforced again.
	f.clock.Advance(4 * time.Hour)
	resp, err = client.Get(ctx, "http://adult-site.net/")
	if err != nil || resp.StatusCode != 302 {
		t.Fatalf("15:00 = %v, %v; want 302", resp, err)
	}
}

func TestFrozenDatabaseIgnoresNewCategorizations(t *testing.T) {
	clock := simclock.NewManual(time.Time{})
	db := NewDatabase(clock)
	frozen := clock.Now().Add(simclock.Days(1))
	engine := &Engine{
		View:      &common.SyncView{DB: db, FrozenAt: frozen},
		Policy:    common.NewCategoryPolicy(CatProxyAvoid),
		BlockHost: "wsg1.example",
	}
	// The vendor categorizes a new proxy after the cutoff (Websense cut
	// Yemen off in 2009, §2.2).
	clock.Advance(simclock.Days(2))
	db.Submit("http://newproxy.info/", CatProxyAvoid, netip.Addr{}, "") //nolint:errcheck // valid
	clock.Advance(simclock.Days(10))
	if d := engine.Decide(req(t, "http://newproxy.info/"), clock.Now()); d.Block {
		t.Fatal("frozen deployment learned a post-cutoff categorization")
	}
}

func TestBlockPageService(t *testing.T) {
	f := installFixture(t, nil)
	client := &httpwire.Client{Dial: f.out.Dialer(), Timeout: 5 * time.Second}
	resp, err := client.Get(context.Background(),
		"http://10.0.1.1:15871/cgi-bin/blockpage.cgi?ws-session=42&cat=adult-content&url=http://x/")
	if err != nil {
		t.Fatal(err)
	}
	body := string(resp.Body)
	if !strings.Contains(body, "Adult Content") || !strings.Contains(body, "42") {
		t.Fatalf("blockpage.cgi = %s", body)
	}
	// Console face on 80.
	resp, err = client.Get(context.Background(), "http://10.0.1.1/")
	if err != nil || !strings.Contains(string(resp.Body), "Websense Content Gateway") {
		t.Fatalf("console = %v, %v", resp, err)
	}
}

func TestScrubKeepsStructuralRedirect(t *testing.T) {
	f := installFixture(t, func(cfg *Config) { cfg.Scrub = true })
	client := &httpwire.Client{Dial: f.inside.Dialer(), Timeout: 5 * time.Second}
	chain, err := client.GetFollow(context.Background(), "http://adult-site.net/")
	if err != nil {
		t.Fatal(err)
	}
	loc := chain[0].Header.Get("Location")
	if !strings.Contains(loc, ":15871") || !strings.Contains(loc, "ws-session=") {
		t.Fatal("scrubbing broke the structural block redirect")
	}
	if strings.Contains(string(chain[len(chain)-1].Body), "Websense") {
		t.Fatal("scrubbed block page leaks brand")
	}
}
