package world

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"filtermap/internal/confirm"
	"filtermap/internal/measurement"
	"filtermap/internal/products/netsweeper"
	"filtermap/internal/simclock"
	"filtermap/internal/urllist"
)

func buildTestWorld(t *testing.T, opts Options) *World {
	t.Helper()
	w, err := Build(opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	t.Cleanup(w.Close)
	return w
}

func TestWorldBuilds(t *testing.T) {
	w := buildTestWorld(t, Options{})
	if len(w.Net.Hosts()) < 100 {
		t.Fatalf("world has only %d hosts; expected a populated Internet", len(w.Net.Hosts()))
	}
	for _, isp := range []string{ISPEtisalat, ISPDu, ISPOoredoo, ISPBayanat, ISPNournet, ISPYemenNet} {
		if _, ok := w.FieldHosts[isp]; !ok {
			t.Errorf("no field host in %s", isp)
		}
	}
}

// TestAddASDuplicateNumber: the whois table holds one AS per number, so
// a second AS with a registered number is refused before it is
// announced.
func TestAddASDuplicateNumber(t *testing.T) {
	w := buildTestWorld(t, Options{})
	if err := w.addAS(64999, "A", "US", "10.99.0.0/16"); err != nil {
		t.Fatalf("addAS: %v", err)
	}
	if err := w.addAS(64999, "B", "US", "10.98.0.0/16"); err == nil {
		t.Fatal("duplicate AS number accepted")
	}
	if rec, ok := w.ASTable.Lookup(netip.MustParseAddr("10.98.0.1")); ok {
		t.Fatalf("refused AS announced: %+v", rec)
	}
}

// TestChallenge1CategoryNotEnabled reproduces §4.3: SmartFilter-classified
// proxy sites load fine in Saudi Arabia (the proxy category is not
// enabled) while SmartFilter-classified pornography is blocked; in UAE
// both are blocked.
func TestChallenge1CategoryNotEnabled(t *testing.T) {
	w := buildTestWorld(t, Options{})
	ctx := context.Background()

	saudi, err := w.MeasureClient(ISPBayanat)
	if err != nil {
		t.Fatal(err)
	}
	res := saudi.TestURL(ctx, "http://securelyproxy.net/")
	if res.Verdict != measurement.Accessible {
		t.Fatalf("Saudi proxy-category site verdict = %v, want accessible (category not enabled)", res.Verdict)
	}
	res = saudi.TestURL(ctx, "http://global-pornography.org/")
	if res.Verdict != measurement.Blocked {
		t.Fatalf("Saudi pornography verdict = %v, want blocked", res.Verdict)
	}
	if res.BlockMatch.Product != "McAfee SmartFilter" {
		t.Fatalf("Saudi block attributed to %q, want McAfee SmartFilter", res.BlockMatch.Product)
	}

	uae, err := w.MeasureClient(ISPEtisalat)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"http://securelyproxy.net/", "http://global-pornography.org/"} {
		res := uae.TestURL(ctx, u)
		if res.Verdict != measurement.Blocked {
			t.Fatalf("Etisalat verdict for %s = %v, want blocked", u, res.Verdict)
		}
		if res.BlockMatch.Product != "McAfee SmartFilter" {
			t.Fatalf("Etisalat block attributed to %q, want McAfee SmartFilter (challenge 3: SmartFilter atop Blue Coat)", res.BlockMatch.Product)
		}
	}
}

// TestTable3 reproduces every row of Table 3 exactly.
func TestTable3(t *testing.T) {
	w := buildTestWorld(t, Options{})
	outcomes, err := w.RunTable3(context.Background())
	if err != nil {
		t.Fatalf("RunTable3: %v", err)
	}
	if len(outcomes) != 10 {
		t.Fatalf("got %d outcomes, want 10", len(outcomes))
	}
	type row struct {
		product, country, isp string
		asn                   int
		submitted, blocked    string
		confirmed             bool
	}
	want := []row{
		{"Blue Coat", "AE", ISPEtisalat, 5384, "3/6", "0/3", false},
		{"Blue Coat", "QA", ISPOoredoo, 42298, "3/6", "0/3", false},
		{"McAfee SmartFilter", "QA", ISPOoredoo, 42298, "5/10", "0/5", false},
		{"McAfee SmartFilter", "SA", ISPBayanat, 48237, "5/10", "5/5", true},
		{"McAfee SmartFilter", "SA", ISPNournet, 29684, "5/10", "5/5", true},
		{"McAfee SmartFilter", "AE", ISPEtisalat, 5384, "5/10", "5/5", true},
		{"McAfee SmartFilter", "AE", ISPEtisalat, 5384, "5/10", "5/5", true},
		{"Netsweeper", "QA", ISPOoredoo, 42298, "6/12", "6/6", true},
		{"Netsweeper", "AE", ISPDu, 15802, "6/12", "5/6", true},
		{"Netsweeper", "YE", ISPYemenNet, 12486, "6/12", "6/6", true},
	}
	for i, wr := range want {
		o := outcomes[i]
		c := o.Campaign
		if c.Product != wr.product || c.Country != wr.country || c.ISP != wr.isp || c.ASN != wr.asn {
			t.Errorf("row %d identity = %s/%s/%s/AS%d, want %s/%s/%s/AS%d",
				i+1, c.Product, c.Country, c.ISP, c.ASN, wr.product, wr.country, wr.isp, wr.asn)
		}
		if got := o.SubmittedRatio(); got != wr.submitted {
			t.Errorf("row %d (%s %s) submitted = %s, want %s", i+1, c.Product, c.ISP, got, wr.submitted)
		}
		if got := o.Ratio(); got != wr.blocked {
			t.Errorf("row %d (%s %s) blocked = %s, want %s", i+1, c.Product, c.ISP, got, wr.blocked)
		}
		if o.Confirmed != wr.confirmed {
			t.Errorf("row %d (%s %s) confirmed = %v, want %v", i+1, c.Product, c.ISP, o.Confirmed, wr.confirmed)
		}
		if o.BlockedControls != 0 {
			t.Errorf("row %d (%s %s) blocked controls = %d, want 0", i+1, c.Product, c.ISP, o.BlockedControls)
		}
		if c.PreTest && !o.PreTestClean {
			t.Errorf("row %d (%s %s) pre-test was not clean", i+1, c.Product, c.ISP)
		}
	}
}

// TestDuSyncLagAblation shows the mechanism behind Du's 5/6: with the
// weekly sync lag disabled, the same campaign blocks 6/6.
func TestDuSyncLagAblation(t *testing.T) {
	w := buildTestWorld(t, Options{DisableDuSyncLag: true})
	var duPlan *Plan
	for _, p := range w.Table3Plans() {
		if p.Key == "netsweeper-uae-du" {
			pp := p
			duPlan = &pp
			break
		}
	}
	if duPlan == nil {
		t.Fatal("no Du plan")
	}
	w.Clock.AdvanceTo(duPlan.StartAt)
	campaign, err := duPlan.Build()
	if err != nil {
		t.Fatal(err)
	}
	outcome, err := confirm.Run(context.Background(), campaign)
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Ratio() != "6/6" {
		t.Fatalf("without sync lag Du blocked %s, want 6/6", outcome.Ratio())
	}
}

// TestDenyPageTests reproduces §4.4's 66-category probe in YemenNet:
// exactly five categories blocked — adult images, phishing, pornography,
// proxy anonymizers, search keywords.
func TestDenyPageTests(t *testing.T) {
	w := buildTestWorld(t, Options{})
	// Probe at an hour when the license permits filtering.
	w.Clock.AdvanceTo(simclock.Epoch.Add(8 * time.Hour))
	if !w.YemenFilteringActive(w.Clock.Now()) {
		t.Fatal("expected filtering active at 08:00")
	}
	client, err := w.MeasureClient(ISPYemenNet)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var blocked []int
	for n := 1; n <= 66; n++ {
		url := fmt.Sprintf("http://%s/category/catno/%d", HostDenyPageTests, n)
		res := client.TestURL(ctx, url)
		if res.Verdict == measurement.Blocked {
			blocked = append(blocked, n)
		}
	}
	want := []int{
		netsweeper.CatNoAdultImage,
		netsweeper.CatNoPhishing,
		netsweeper.CatNoPornography,
		netsweeper.CatNoProxyAnonymizer,
		netsweeper.CatNoSearchKeywords,
	}
	if len(blocked) != len(want) {
		t.Fatalf("blocked categories = %v, want %v", blocked, want)
	}
	for i := range want {
		if blocked[i] != want[i] {
			t.Fatalf("blocked categories = %v, want %v", blocked, want)
		}
	}
}

// TestYemenInconsistentBlocking reproduces challenge 2: at peak demand
// the license is exhausted and filtering fails open.
func TestYemenInconsistentBlocking(t *testing.T) {
	w := buildTestWorld(t, Options{})
	client, err := w.MeasureClient(ISPYemenNet)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const url = "http://global-pornography.org/"

	// 08:00: demand under license, blocking enforced.
	w.Clock.AdvanceTo(simclock.Epoch.Add(8 * time.Hour))
	if res := client.TestURL(ctx, url); res.Verdict != measurement.Blocked {
		t.Fatalf("off-peak verdict = %v, want blocked", res.Verdict)
	}
	// 14:00: peak demand exceeds the license, filter fails open.
	w.Clock.Advance(6 * time.Hour)
	if w.YemenFilteringActive(w.Clock.Now()) {
		t.Fatal("expected license exhausted at peak")
	}
	if res := client.TestURL(ctx, url); res.Verdict != measurement.Accessible {
		t.Fatalf("peak verdict = %v, want accessible (fail-open)", res.Verdict)
	}
	// 20:00: enforcement resumes.
	w.Clock.Advance(6 * time.Hour)
	if res := client.TestURL(ctx, url); res.Verdict != measurement.Blocked {
		t.Fatalf("evening verdict = %v, want blocked again", res.Verdict)
	}
}

// TestNetsweeperAutoQueueTaintsPreTest reproduces the §4.4 rationale for
// skipping pre-tests: merely accessing an uncategorized proxy site
// through a queueing deployment gets it categorized and, days later,
// blocked — without any submission.
func TestNetsweeperAutoQueueTaintsPreTest(t *testing.T) {
	w := buildTestWorld(t, Options{})
	w.Clock.AdvanceTo(simclock.Epoch.Add(8 * time.Hour))
	urls, err := w.ProvisionTestSites(urllist.GlypeProxy, 2)
	if err != nil {
		t.Fatal(err)
	}
	client, err := w.MeasureClient(ISPYemenNet)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Pre-test: accessible, but the access itself queues the domains.
	for _, u := range urls {
		if res := client.TestURL(ctx, u); res.Verdict != measurement.Accessible {
			t.Fatalf("fresh site %s verdict = %v, want accessible", u, res.Verdict)
		}
	}
	// Days later the queue has categorized them; no submission happened.
	w.Wait(simclock.Days(4))
	for _, u := range urls {
		if res := client.TestURL(ctx, u); res.Verdict != measurement.Blocked {
			t.Fatalf("pre-tested site %s verdict = %v, want blocked by auto-categorization", u, res.Verdict)
		}
	}
}

// TestCloseReleasesPooledConnections pins World.Close against the
// keep-alive leak: characterization and the mechanism survey park
// pooled connections whose server-side goroutines must all exit when
// the world closes.
func TestCloseReleasesPooledConnections(t *testing.T) {
	baseline := runtime.NumGoroutine()
	w, err := Build(Options{Mechanisms: &MechanismOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w.Clock.Advance(8 * time.Hour)
	if _, err := w.RunCharacterization(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunMechanismSurvey(ctx); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if n := goroutinesSettle(baseline); n > baseline {
		t.Fatalf("%d goroutines after Close, baseline %d", n, baseline)
	}
}

// TestIdleWorldParksNoGoroutines: every simulated port dispatches its
// connections directly, so a built world nobody dials runs no
// goroutine at all, and Close leaves none behind.
func TestIdleWorldParksNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"mechanisms", Options{Mechanisms: &MechanismOptions{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			w, err := Build(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if n := goroutinesSettle(baseline); n > baseline {
				w.Close()
				t.Fatalf("idle world parks %d goroutines (%d, baseline %d)", n-baseline, n, baseline)
			}
			w.Close()
			if n := goroutinesSettle(baseline); n > baseline {
				t.Fatalf("%d goroutines after Close, baseline %d", n, baseline)
			}
		})
	}
}

// goroutinesSettle waits up to five seconds for the goroutine count to
// fall to want, so goroutines a build, a run or Close started may
// finish, and returns the last count.
func goroutinesSettle(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	return n
}
