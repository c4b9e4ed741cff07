package bluecoat

import (
	"context"
	"encoding/base64"
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
	if err := db.AddDomain("proxy-site.net", CatProxyAvoidance); err != nil {
		t.Fatal(err)
	}
	engine := &Engine{
		View:          &common.SyncView{DB: db},
		Policy:        common.NewCategoryPolicy(CatProxyAvoidance),
		ApplianceName: "proxy1.example",
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

func TestTaxonomyIncludesProxyAvoidance(t *testing.T) {
	found := false
	for _, c := range DefaultTaxonomy() {
		if c.Code == CatProxyAvoidance && c.Name == "Proxy Avoidance" {
			found = true
		}
	}
	if !found {
		t.Fatal("Proxy Avoidance missing from taxonomy (§4.5 submits to it)")
	}
}

func TestEngineBlocksEnabledCategory(t *testing.T) {
	engine, _, clock := newEngine(t)
	d := engine.Decide(req(t, "http://proxy-site.net/page"), clock.Now())
	if !d.Block || d.Category != CatProxyAvoidance {
		t.Fatalf("decision = %+v", d)
	}
	resp := d.Response
	if resp.StatusCode != 403 {
		t.Fatalf("block status = %d", resp.StatusCode)
	}
	body := string(resp.Body)
	if !strings.Contains(body, "content categorization") || !strings.Contains(body, "Proxy Avoidance") {
		t.Fatalf("exception page missing markers: %s", body)
	}
	if !strings.Contains(resp.Header.Get("Via"), "Blue Coat ProxySG") {
		t.Fatal("block page missing ProxySG Via")
	}
}

func TestEnginePassesDisabledCategoryAndUnknownHosts(t *testing.T) {
	engine, db, clock := newEngine(t)
	if err := db.AddDomain("casino.net", CatGambling); err != nil {
		t.Fatal(err)
	}
	if d := engine.Decide(req(t, "http://casino.net/"), clock.Now()); d.Block {
		t.Fatal("blocked a disabled category")
	}
	if d := engine.Decide(req(t, "http://unknown.net/"), clock.Now()); d.Block {
		t.Fatal("blocked an uncategorized host")
	}
}

func TestEngineCustomList(t *testing.T) {
	engine, _, clock := newEngine(t)
	engine.Policy.AddCustom("enemy.org", "natl")
	d := engine.Decide(req(t, "http://www.enemy.org/"), clock.Now())
	if !d.Block || d.Category != "natl" {
		t.Fatalf("custom decision = %+v", d)
	}
}

// installFixture installs an appliance and returns a host outside its
// ISP.
func installFixture(t *testing.T, cfg Config) *netsim.Host {
	t.Helper()
	clock := simclock.NewManual(time.Time{})
	n := netsim.New(clock)
	t.Cleanup(n.Close)
	isp, _ := n.AddISP("ISP")
	host, err := n.AddHost(netip.MustParseAddr("10.0.1.1"), "proxy1.example", isp)
	if err != nil {
		t.Fatal(err)
	}
	outside, err := n.AddHost(netip.MustParseAddr("198.51.100.9"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Install(host, cfg); err != nil {
		t.Fatal(err)
	}
	return outside
}

func TestApplianceCfAuthRedirect(t *testing.T) {
	outside := installFixture(t, Config{Name: "proxy1.example"})
	client := &httpwire.Client{Dial: outside.Dialer(), Timeout: 5 * time.Second}
	resp, err := client.Get(context.Background(), "http://10.0.1.1/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 302 {
		t.Fatalf("front door status = %d", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	u, err := url.Parse(loc)
	if err != nil || u.Hostname() != "www.cfauth.com" {
		t.Fatalf("Location = %q", loc)
	}
	cfru := u.Query().Get("cfru")
	if cfru == "" {
		t.Fatal("cfru parameter missing")
	}
	decoded, err := base64.URLEncoding.DecodeString(cfru)
	if err != nil || !strings.Contains(string(decoded), "http://") {
		t.Fatalf("cfru decode = %q, %v", decoded, err)
	}
	if resp.Header.Get("Server") != "Blue Coat ProxySG" {
		t.Fatalf("Server = %q", resp.Header.Get("Server"))
	}
}

func TestApplianceConsole(t *testing.T) {
	outside := installFixture(t, Config{Name: "proxy1.example"})
	client := &httpwire.Client{Dial: outside.Dialer(), Timeout: 5 * time.Second}
	resp, err := client.Get(context.Background(), "http://10.0.1.1:8082/")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp.Body), "Blue Coat ProxySG - Management Console") {
		t.Fatal("console page missing title")
	}
}

func TestApplianceHiddenConsoles(t *testing.T) {
	outside := installFixture(t, Config{Name: "p", ConsoleVisibility: netsim.ISPOnly})
	client := &httpwire.Client{Dial: outside.Dialer(), Timeout: 2 * time.Second}
	for _, port := range []uint16{80, 8080, 8082} {
		if _, err := client.Get(context.Background(), "http://10.0.1.1:"+itoa(port)+"/"); err == nil {
			t.Fatalf("port %d reachable from outside despite ISPOnly", port)
		}
	}
}

func itoa(p uint16) string {
	b := [5]byte{}
	i := len(b)
	for p > 0 {
		i--
		b[i] = byte('0' + p%10)
		p /= 10
	}
	return string(b[i:])
}

func TestApplianceScrubbed(t *testing.T) {
	outside := installFixture(t, Config{Name: "p", Scrub: true})
	client := &httpwire.Client{Dial: outside.Dialer(), Timeout: 5 * time.Second}
	resp, err := client.Get(context.Background(), "http://10.0.1.1:8082/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Has("Server") {
		t.Fatal("scrubbed console still sends Server")
	}
	if strings.Contains(string(resp.Body), "Blue Coat") || strings.Contains(string(resp.Body), "ProxySG") {
		t.Fatal("scrubbed console leaks brand strings")
	}
	// The cfauth redirect is structural and survives scrubbing.
	resp, err = client.Get(context.Background(), "http://10.0.1.1/")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Header.Get("Location"), "cfauth.com") {
		t.Fatal("functional cfauth redirect was broken by scrubbing")
	}
}

func TestSiteReviewSubmissionFlow(t *testing.T) {
	clock := simclock.NewManual(time.Time{})
	n := netsim.New(clock)
	t.Cleanup(n.Close)
	db := NewDatabase(clock)
	portal, err := n.AddHost(netip.MustParseAddr("199.91.1.10"), "sitereview.example", nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpwire.Server{Handler: SiteReviewHandler(db)}
	if _, err := portal.Serve(80, netsim.Public, srv); err != nil {
		t.Fatal(err)
	}

	lab, err := n.AddHost(netip.MustParseAddr("128.100.50.10"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &httpwire.Client{Dial: lab.Dialer(), Timeout: 5 * time.Second}
	ctx := context.Background()

	// The form is served.
	resp, err := client.Get(ctx, "http://sitereview.example/sitereview")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("form fetch = %v, %v", resp, err)
	}

	// Submission is accepted and lands in the vendor DB.
	resp, err = SubmitViaPortal(ctx, client, "sitereview.example", "http://fresh.info/", CatProxyAvoidance, "r@lab.example")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("submit = %v, %v", resp, err)
	}
	subs := db.Submissions()
	if len(subs) != 1 || subs[0].URL != "http://fresh.info/" || subs[0].State != categorydb.Accepted {
		t.Fatalf("submissions = %+v", subs)
	}
	// Submitter identity captured (evasion scenarios key on it).
	if subs[0].SubmitterIP != lab.Addr() || subs[0].SubmitterEmail != "r@lab.example" {
		t.Fatalf("submitter identity = %v %q", subs[0].SubmitterIP, subs[0].SubmitterEmail)
	}

	// Status endpoint reports it.
	resp, err = client.Get(ctx, "http://sitereview.example/sitereview/status?id=1")
	if err != nil || resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "accepted") {
		t.Fatalf("status = %v, %v", resp, err)
	}
	// Unknown id 404s; missing URL 400s.
	resp, _ = client.Get(ctx, "http://sitereview.example/sitereview/status?id=99")
	if resp.StatusCode != 404 {
		t.Fatalf("unknown id status = %d", resp.StatusCode)
	}
	bad, _ := httpwire.NewRequest("POST", "http://sitereview.example/sitereview")
	bad.Header.Add("Content-Type", "application/x-www-form-urlencoded")
	resp, err = client.Do(ctx, bad)
	if err != nil || resp.StatusCode != 400 {
		t.Fatalf("empty submit = %v, %v", resp, err)
	}
}

func TestCfAuthHandler(t *testing.T) {
	h := CfAuthHandler()
	cont := base64.URLEncoding.EncodeToString([]byte("http://original.example/"))
	r := req(t, "http://www.cfauth.com/?cfru="+url.QueryEscape(cont))
	resp := h.Handle(r)
	if resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "original.example") {
		t.Fatalf("cfauth = %d %s", resp.StatusCode, resp.Body)
	}
	// Garbage cfru degrades gracefully.
	resp = h.Handle(req(t, "http://www.cfauth.com/?cfru=!!!"))
	if resp.StatusCode != 200 {
		t.Fatalf("garbage cfru status = %d", resp.StatusCode)
	}
}
