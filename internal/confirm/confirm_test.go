package confirm

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"filtermap/internal/categorydb"
	"filtermap/internal/httpwire"
	"filtermap/internal/measurement"
	"filtermap/internal/netsim"
	"filtermap/internal/products/common"
	"filtermap/internal/products/smartfilter"
	"filtermap/internal/simclock"
)

// harness is a miniature world: one filtered ISP running a SmartFilter
// engine against a live vendor DB, origin hosting for test sites, and a
// dual-vantage client.
type harness struct {
	clock   *simclock.Manual
	net     *netsim.Network
	db      *categorydb.DB
	measure *measurement.Client
	nextIP  netip.Addr
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	clock := simclock.NewManual(time.Time{})
	n := netsim.New(clock)
	t.Cleanup(n.Close)

	db := smartfilter.NewDatabase(clock)

	isp, err := n.AddISP("Bayanat")
	if err != nil {
		t.Fatal(err)
	}
	filterHost, err := n.AddHost(netip.MustParseAddr("77.30.1.1"), "mwg1.example", isp)
	if err != nil {
		t.Fatal(err)
	}
	engine := &smartfilter.Engine{
		View:        &common.SyncView{DB: db}, // live view keeps the harness simple
		Policy:      common.NewCategoryPolicy(smartfilter.CatPornography),
		GatewayName: "mwg1.example",
	}
	gw, err := smartfilter.Install(filterHost, smartfilter.Config{Name: "mwg1.example", Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	isp.SetInterceptor(gw)

	field, err := n.AddHost(netip.MustParseAddr("77.30.20.20"), "", isp)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := n.AddHost(netip.MustParseAddr("128.100.50.10"), "lab.example", nil)
	if err != nil {
		t.Fatal(err)
	}

	return &harness{
		clock: clock,
		net:   n,
		db:    db,
		measure: &measurement.Client{
			Field: &measurement.Vantage{Name: "field", Host: field},
			Lab:   &measurement.Vantage{Name: "lab", Host: lab},
		},
		nextIP: netip.MustParseAddr("160.153.1.1"),
	}
}

// site hosts a fresh benign origin and returns its URL.
func (h *harness) site(t *testing.T, domain string) string {
	t.Helper()
	host, err := h.net.AddHost(h.nextIP, domain, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.nextIP = h.nextIP.Next()
	srv := &httpwire.Server{Handler: httpwire.HandlerFunc(func(*httpwire.Request) *httpwire.Response {
		return httpwire.NewResponse(200, nil, []byte("content of "+domain))
	})}
	if _, err := host.Serve(80, netsim.Public, srv); err != nil {
		t.Fatal(err)
	}
	return "http://" + domain + "/"
}

func (h *harness) sites(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = h.site(t, fmt.Sprintf("test%d.info", i))
	}
	return urls
}

// directSubmit submits straight into the vendor DB.
func (h *harness) directSubmit() SubmitFunc {
	return func(ctx context.Context, url, category string) error {
		_, err := h.db.Submit(url, category, netip.MustParseAddr("128.100.50.10"), "r@lab.example")
		return err
	}
}

func (h *harness) campaign(t *testing.T, urls []string, submitN int) *Campaign {
	t.Helper()
	return &Campaign{
		Product: "McAfee SmartFilter", Country: "SA", ISP: "Bayanat", ASN: 48237,
		Category: smartfilter.CatPornography, CategoryLabel: "Pornography",
		DomainURLs:  urls,
		SubmitCount: submitN,
		PreTest:     true,
		WaitDays:    4,
		Submit:      h.directSubmit(),
		Wait:        h.clock.Advance,
		Measure:     h.measure,
	}
}

func TestRunConfirmsWhenSubmittedSubsetBlocks(t *testing.T) {
	h := newHarness(t)
	urls := h.sites(t, 10)
	outcome, err := Run(context.Background(), h.campaign(t, urls, 5))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !outcome.PreTestClean {
		t.Fatal("pre-test not clean")
	}
	if outcome.Ratio() != "5/5" || outcome.SubmittedRatio() != "5/10" {
		t.Fatalf("ratios = %s, %s", outcome.Ratio(), outcome.SubmittedRatio())
	}
	if outcome.BlockedControls != 0 {
		t.Fatalf("controls blocked = %d", outcome.BlockedControls)
	}
	if !outcome.Confirmed {
		t.Fatal("not confirmed")
	}
	if len(outcome.BlockedSubmittedURLs) != 5 {
		t.Fatalf("blocked URLs = %v", outcome.BlockedSubmittedURLs)
	}
}

func TestRunNotConfirmedWhenVendorIgnored(t *testing.T) {
	h := newHarness(t)
	urls := h.sites(t, 6)
	c := h.campaign(t, urls, 3)
	// Submissions go to a different vendor's database (the Blue Coat
	// Qatar scenario): nothing the ISP consults changes.
	other := smartfilter.NewDatabase(h.clock)
	c.Submit = func(ctx context.Context, url, category string) error {
		_, err := other.Submit(url, category, netip.Addr{}, "")
		return err
	}
	outcome, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Confirmed || outcome.Ratio() != "0/3" {
		t.Fatalf("outcome = %s confirmed=%v, want 0/3 unconfirmed", outcome.Ratio(), outcome.Confirmed)
	}
}

func TestRunRecordsSubmitErrors(t *testing.T) {
	h := newHarness(t)
	urls := h.sites(t, 4)
	c := h.campaign(t, urls, 2)
	c.Submit = func(context.Context, string, string) error { return errors.New("portal down") }
	outcome, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcome.SubmitErrors) != 2 {
		t.Fatalf("submit errors = %d, want 2", len(outcome.SubmitErrors))
	}
	if outcome.Confirmed {
		t.Fatal("confirmed despite failed submissions")
	}
}

func TestRunPreTestSkipped(t *testing.T) {
	h := newHarness(t)
	urls := h.sites(t, 4)
	c := h.campaign(t, urls, 2)
	c.PreTest = false
	outcome, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcome.PreTestResults) != 0 {
		t.Fatal("pre-test ran despite PreTest=false")
	}
	if !outcome.PreTestClean {
		t.Fatal("PreTestClean should be vacuously true")
	}
}

func TestRunMultipleRoundsCatchIntermittentBlocking(t *testing.T) {
	h := newHarness(t)
	urls := h.sites(t, 4)
	c := h.campaign(t, urls, 2)
	c.RetestRounds = 3
	c.RetestSpacing = 2 * time.Hour
	outcome, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcome.Rounds) != 3 {
		t.Fatalf("rounds = %d, want 3", len(outcome.Rounds))
	}
	if outcome.Ratio() != "2/2" {
		t.Fatalf("ratio = %s", outcome.Ratio())
	}
}

func TestValidation(t *testing.T) {
	h := newHarness(t)
	urls := h.sites(t, 2)
	base := h.campaign(t, urls, 1)

	bad := *base
	bad.DomainURLs = nil
	if _, err := Run(context.Background(), &bad); err == nil {
		t.Error("no domains accepted")
	}
	bad = *base
	bad.SubmitCount = 3
	if _, err := Run(context.Background(), &bad); err == nil {
		t.Error("submit count > domains accepted")
	}
	bad = *base
	bad.SubmitCount = 0
	if _, err := Run(context.Background(), &bad); err == nil {
		t.Error("zero submit count accepted")
	}
	bad = *base
	bad.Submit = nil
	if _, err := Run(context.Background(), &bad); err == nil {
		t.Error("nil submit accepted")
	}
	bad = *base
	bad.Wait = nil
	if _, err := Run(context.Background(), &bad); err == nil {
		t.Error("nil wait accepted")
	}
	bad = *base
	bad.Measure = nil
	if _, err := Run(context.Background(), &bad); err == nil {
		t.Error("nil measure accepted")
	}
}

func TestConfirmationNeedsMajority(t *testing.T) {
	// Synthetic check of the verdict rule: 1/3 blocked is not confirmed,
	// 2/3 is.
	h := newHarness(t)
	urls := h.sites(t, 3)
	c := h.campaign(t, urls, 3)
	submitted := 0
	c.Submit = func(ctx context.Context, url, category string) error {
		submitted++
		if submitted > 1 {
			return nil // silently dropped (vendor filter), no DB entry
		}
		_, err := h.db.Submit(url, category, netip.Addr{}, "")
		return err
	}
	outcome, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Ratio() != "1/3" {
		t.Fatalf("ratio = %s, want 1/3", outcome.Ratio())
	}
	if outcome.Confirmed {
		t.Fatal("1/3 must not confirm")
	}
}

func TestBlockedControlVoidsConfirmation(t *testing.T) {
	h := newHarness(t)
	urls := h.sites(t, 4)
	c := h.campaign(t, urls, 2)
	// Sabotage: a control domain is independently blocked (pre-existing
	// categorization) — attribution is no longer clean.
	controlDomain := categorydb.DomainOfURL(urls[3])
	if err := h.db.AddDomain(controlDomain, smartfilter.CatPornography); err != nil {
		t.Fatal(err)
	}
	c.PreTest = false // skip pre-test so the tainted control reaches retest
	outcome, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if outcome.BlockedControls != 1 {
		t.Fatalf("blocked controls = %d, want 1", outcome.BlockedControls)
	}
	if outcome.Confirmed {
		t.Fatal("confirmation must fail when controls are blocked")
	}
}

func TestNarrative(t *testing.T) {
	h := newHarness(t)
	urls := h.sites(t, 10)
	outcome, err := Run(context.Background(), h.campaign(t, urls, 5))
	if err != nil {
		t.Fatal(err)
	}
	n := outcome.Narrative()
	for _, want := range []string{
		"created 10 domains",
		"verified all domains were accessible",
		"submitted 5 of the domains",
		"5 of the 5 submitted domains were blocked",
		"0 of the 5 unsubmitted control domains",
		"confirms that McAfee SmartFilter is used for censorship in Bayanat",
	} {
		if !strings.Contains(n, want) {
			t.Errorf("narrative missing %q:\n%s", want, n)
		}
	}
}

func TestNarrativeNoPreTestAndNegative(t *testing.T) {
	h := newHarness(t)
	urls := h.sites(t, 6)
	c := h.campaign(t, urls, 3)
	c.PreTest = false
	other := smartfilter.NewDatabase(h.clock)
	c.Submit = func(ctx context.Context, url, category string) error {
		_, err := other.Submit(url, category, netip.Addr{}, "")
		return err
	}
	outcome, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	n := outcome.Narrative()
	if !strings.Contains(n, "no pre-test was run") {
		t.Errorf("narrative missing no-pretest language:\n%s", n)
	}
	if !strings.Contains(n, "does not drive blocking") {
		t.Errorf("narrative missing negative verdict:\n%s", n)
	}
}
