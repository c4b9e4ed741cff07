package world

import (
	"context"
	"slices"
	"sort"
	"testing"
	"time"

	"filtermap/internal/characterize"
	"filtermap/internal/confirm"
	"filtermap/internal/fingerprint"
	"filtermap/internal/measurement"
	"filtermap/internal/products/smartfilter"
	"filtermap/internal/simclock"
	"filtermap/internal/urllist"
)

// TestIdentificationFigure1 runs the full §3 pipeline over the simulated
// Internet and checks the Figure 1 product->country map.
func TestIdentificationFigure1(t *testing.T) {
	w := buildTestWorld(t, Options{})
	report, err := w.RunIdentification(context.Background())
	if err != nil {
		t.Fatalf("RunIdentification: %v", err)
	}
	pc := report.ProductCountries()

	want := map[string][]string{
		fingerprint.ProductBlueCoat:    {"AE", "AR", "CL", "FI", "IL", "LB", "PH", "QA", "SE", "SY", "TH", "TW", "US"},
		fingerprint.ProductNetsweeper:  {"AE", "QA", "US", "YE"},
		fingerprint.ProductSmartFilter: {"PK", "SA", "US"},
		fingerprint.ProductWebsense:    {"US", "YE"},
	}
	for product, countries := range want {
		got := pc[product]
		if !equalStrings(got, countries) {
			t.Errorf("%s countries = %v, want %v", product, got, countries)
		}
	}

	// Validation must have rejected the decoys.
	if report.ValidatedCount >= report.CandidateCount {
		t.Errorf("validation rejected nothing: %d candidates, %d validated",
			report.CandidateCount, report.ValidatedCount)
	}
	for _, inst := range report.Installations {
		switch inst.Hostname {
		case "techblog.example", "router.smallisp.example", "forum.netops.example":
			t.Errorf("decoy %s survived validation as %v", inst.Hostname, inst.Products)
		}
	}

	// The USAISC observation (§3.2).
	foundUSAISC := false
	for _, inst := range report.Installations {
		if inst.Hostname == "gw.usaisc.army.example" && slices.Contains(inst.Products, fingerprint.ProductBlueCoat) {
			foundUSAISC = true
			if inst.ASN != 721 {
				t.Errorf("USAISC ASN = %d, want 721", inst.ASN)
			}
		}
	}
	if !foundUSAISC {
		t.Error("Blue Coat on the USAISC address was not identified")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// TestCharacterizationTable4 reproduces the (reconstructed) Table 4
// matrix.
func TestCharacterizationTable4(t *testing.T) {
	w := buildTestWorld(t, Options{})
	// §5 runs within 30 days of the confirmations; exact date is not
	// material, but the Yemen license must permit filtering.
	w.Clock.AdvanceTo(simclock.Epoch.Add(8 * time.Hour))
	reports, err := w.RunCharacterization(context.Background())
	if err != nil {
		t.Fatalf("RunCharacterization: %v", err)
	}
	rows := characterize.Matrix(reports)

	type key struct {
		product string
		asn     int
	}
	want := map[key]map[string]bool{
		{"McAfee SmartFilter", ASNEtisalat}: {
			urllist.CatMediaFreedom:       true,
			urllist.CatHumanRights:        false,
			urllist.CatPoliticalReform:    true,
			urllist.CatLGBT:               true,
			urllist.CatReligiousCriticism: true,
			urllist.CatMinorityRights:     false,
		},
		{"Netsweeper", ASNYemenNet}: {
			urllist.CatMediaFreedom:       true,
			urllist.CatHumanRights:        true,
			urllist.CatPoliticalReform:    true,
			urllist.CatLGBT:               true,
			urllist.CatReligiousCriticism: false,
			urllist.CatMinorityRights:     false,
		},
		{"Netsweeper", ASNDu}: {
			urllist.CatMediaFreedom:       false,
			urllist.CatHumanRights:        false,
			urllist.CatPoliticalReform:    true,
			urllist.CatLGBT:               true,
			urllist.CatReligiousCriticism: true,
			urllist.CatMinorityRights:     true,
		},
		{"Netsweeper", ASNOoredoo}: {
			urllist.CatMediaFreedom:       false,
			urllist.CatHumanRights:        false,
			urllist.CatPoliticalReform:    false,
			urllist.CatLGBT:               true,
			urllist.CatReligiousCriticism: true,
			urllist.CatMinorityRights:     false,
		},
	}
	seen := make(map[key]bool)
	for _, row := range rows {
		k := key{row.Product, row.ASN}
		expect, ok := want[k]
		if !ok {
			continue
		}
		seen[k] = true
		for col, v := range expect {
			if row.Blocked[col] != v {
				t.Errorf("%s AS%d column %s = %v, want %v", row.Product, row.ASN, col, row.Blocked[col], v)
			}
		}
	}
	for k := range want {
		if !seen[k] {
			t.Errorf("no Table 4 row for %s AS%d", k.product, k.asn)
		}
	}
}

// TestEvasionHiddenConsoles reproduces Table 5 row 1: with consoles
// firewalled, identification finds nothing, but confirmation still works.
func TestEvasionHiddenConsoles(t *testing.T) {
	w := buildTestWorld(t, Options{HideConsoles: true})
	ctx := context.Background()

	report, err := w.RunIdentification(ctx)
	if err != nil {
		t.Fatalf("RunIdentification: %v", err)
	}
	if got := len(report.Installations); got != 0 {
		t.Fatalf("identification found %d installations despite hidden consoles", got)
	}

	// Confirmation is identification-independent (§6): run the Bayanat
	// campaign and confirm as before.
	outcome := runPlanByKey(t, w, "smartfilter-saudi-bayanat")
	if !outcome.Confirmed || outcome.Ratio() != "5/5" {
		t.Fatalf("confirmation under hidden consoles = %s confirmed=%v, want 5/5 confirmed", outcome.Ratio(), outcome.Confirmed)
	}
}

// TestEvasionScrubbedHeaders reproduces Table 5 row 2: scrubbing headers
// defeats header/title-shaped signatures (McAfee disappears entirely)
// while structural signatures (Netsweeper's deny path, Websense's :15871
// redirect, Blue Coat's cfauth Location) survive — and confirmation still
// works either way, via unattributed field/lab divergence.
func TestEvasionScrubbedHeaders(t *testing.T) {
	w := buildTestWorld(t, Options{ScrubHeaders: true})
	ctx := context.Background()

	report, err := w.RunIdentification(ctx)
	if err != nil {
		t.Fatalf("RunIdentification: %v", err)
	}
	pc := report.ProductCountries()
	if len(pc[fingerprint.ProductSmartFilter]) != 0 {
		t.Errorf("SmartFilter still identified in %v despite scrubbing (header/title signatures should fail)", pc[fingerprint.ProductSmartFilter])
	}
	if len(pc[fingerprint.ProductNetsweeper]) == 0 {
		t.Error("Netsweeper's structural /webadmin signature should survive scrubbing")
	}

	// Confirmation still works: blocked pages are unbranded, so the
	// verdicts arrive as anomalies, and causality does the attribution.
	outcome := runPlanByKey(t, w, "smartfilter-saudi-bayanat")
	if outcome.Confirmed {
		// With branding scrubbed the block-page corpus cannot match; the
		// standard pipeline reports anomalies instead. Re-check with
		// anomaly counting below.
		t.Log("outcome confirmed even with scrubbed headers (classifier matched something)")
	}
	anomalies := 0
	for _, round := range outcome.Rounds {
		for _, r := range round {
			if r.Verdict == measurement.Anomaly {
				anomalies++
			}
		}
	}
	if outcome.BlockedSubmitted == 0 && anomalies == 0 {
		t.Fatal("scrubbed deployment produced neither blocks nor anomalies; submissions had no observable effect")
	}
}

// TestEvasionSubmissionFiltering reproduces Table 5 row 3 and the §6.2
// countermeasure: the vendor disregards lab-identified submissions, so
// the campaign fails; resubmitting via a proxy exit and webmail identity
// restores confirmation.
func TestEvasionSubmissionFiltering(t *testing.T) {
	w := buildTestWorld(t, Options{FilterSubmissions: true})

	// Attempt 1: normal lab submissions are silently disregarded.
	outcome := runPlanByKey(t, w, "smartfilter-saudi-bayanat")
	if outcome.Confirmed || outcome.BlockedSubmitted != 0 {
		t.Fatalf("filtered submissions still blocked %s", outcome.Ratio())
	}

	// Attempt 2: proxy exit + webmail identity.
	urls, err := w.ProvisionTestSites(urllist.AdultImage, 10)
	if err != nil {
		t.Fatal(err)
	}
	measure, err := w.MeasureClient(ISPBayanat)
	if err != nil {
		t.Fatal(err)
	}
	campaign := &confirm.Campaign{
		Product: smartfilter.Name, Country: "SA", ISP: ISPBayanat, ASN: ASNBayanat,
		Category: smartfilter.CatPornography, CategoryLabel: "Pornography",
		DomainURLs: urls, SubmitCount: 5, PreTest: true,
		WaitDays: 4, RetestRounds: 3,
		Submit:  w.CounterEvasionSubmitter(smartfilter.Name),
		Wait:    w.Wait,
		Measure: measure,
	}
	outcome2, err := confirm.Run(context.Background(), campaign)
	if err != nil {
		t.Fatal(err)
	}
	if !outcome2.Confirmed || outcome2.Ratio() != "5/5" {
		t.Fatalf("counter-evasion campaign = %s confirmed=%v, want 5/5 confirmed", outcome2.Ratio(), outcome2.Confirmed)
	}
}

// runPlanByKey advances to and runs a single Table 3 plan.
func runPlanByKey(t *testing.T, w *World, key string) *confirm.Outcome {
	t.Helper()
	for _, p := range w.Table3Plans() {
		if p.Key != key {
			continue
		}
		w.Clock.AdvanceTo(p.StartAt)
		campaign, err := p.Build()
		if err != nil {
			t.Fatalf("build %s: %v", key, err)
		}
		outcome, err := confirm.Run(context.Background(), campaign)
		if err != nil {
			t.Fatalf("run %s: %v", key, err)
		}
		return outcome
	}
	t.Fatalf("no plan %q", key)
	return nil
}

// TestBenignImageShield validates §4.6: testers fetching only the benign
// image on an adult-image host still observe the block, because blocking
// is at hostname granularity.
func TestBenignImageShield(t *testing.T) {
	w := buildTestWorld(t, Options{})
	urls, err := w.ProvisionTestSites(urllist.AdultImage, 1)
	if err != nil {
		t.Fatal(err)
	}
	domain := urls[0][len("http://") : len(urls[0])-1]
	benignURL := "http://" + domain + urllist.BenignImagePath

	client, err := w.MeasureClient(ISPBayanat)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if res := client.TestURL(ctx, benignURL); res.Verdict != measurement.Accessible {
		t.Fatalf("benign image pre-block verdict = %v, want accessible", res.Verdict)
	}

	if _, err := w.SmartFilterDB.Submit(urls[0], smartfilter.CatPornography, w.Lab.Addr(), LabEmail); err != nil {
		t.Fatal(err)
	}
	w.Wait(simclock.Days(4))
	if res := client.TestURL(ctx, benignURL); res.Verdict != measurement.Blocked {
		t.Fatalf("benign image post-block verdict = %v, want blocked (hostname granularity)", res.Verdict)
	}
}

// TestCharacterizationUnderScrubbing shows §5's dependency on explicit
// block pages: with brands scrubbed, the measurement client still detects
// interference but can no longer attribute it to a product, so header-only
// vendors vanish from the Table 4 matrix while redirect-shaped vendors
// (Netsweeper's structural deny path) remain classifiable.
func TestCharacterizationUnderScrubbing(t *testing.T) {
	w := buildTestWorld(t, Options{ScrubHeaders: true})
	w.Clock.AdvanceTo(simclock.Epoch.Add(8 * time.Hour))
	ctx := context.Background()

	// Etisalat (SmartFilter block pages are pure body/header branding):
	// blocking becomes unattributable anomalies.
	uae, err := w.MeasureClient(ISPEtisalat)
	if err != nil {
		t.Fatal(err)
	}
	res := uae.TestURL(ctx, "http://global-pornography.org/")
	if res.Verdict == measurement.Accessible {
		t.Fatal("scrubbed Etisalat stopped blocking entirely")
	}
	if res.Verdict == measurement.Blocked && res.BlockMatch.Product == "McAfee SmartFilter" {
		t.Fatal("scrubbed SmartFilter block page still attributed")
	}

	// YemenNet (Netsweeper redirects to /webadmin/deny): still classified.
	ye, err := w.MeasureClient(ISPYemenNet)
	if err != nil {
		t.Fatal(err)
	}
	res = ye.TestURL(ctx, "http://global-pornography.org/")
	if res.Verdict != measurement.Blocked || res.BlockMatch.Product != "Netsweeper" {
		t.Fatalf("scrubbed Netsweeper verdict = %v via %q, want blocked via Netsweeper", res.Verdict, res.BlockMatch.Product)
	}
}

// TestScanVantagePointDependence pins the dependency the paper's §3
// inherits from its measurement position: scanning from a neutral network
// observes a service's true banner, while the same probe from inside a
// filtered ISP observes the middlebox's handiwork (injected Via headers,
// or block pages instead of content). Identification must therefore run
// from unfiltered vantage points.
func TestScanVantagePointDependence(t *testing.T) {
	w := buildTestWorld(t, Options{})
	ctx := context.Background()

	// A neutral origin outside every filtered ISP.
	target := "http://global-entertainment.org/"

	labClient := w.LabClient()
	clean, err := labClient.Get(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Header.Has("Via") {
		t.Fatalf("neutral vantage saw an injected Via header: %q", clean.Header.Get("Via"))
	}

	etisalat, err := w.FieldVantage(ISPEtisalat)
	if err != nil {
		t.Fatal(err)
	}
	field, err := etisalat.Client(0).Get(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	if !field.Header.Has("Via") {
		t.Fatal("filtered vantage saw no middlebox evidence; vantage dependence not modeled")
	}
}
