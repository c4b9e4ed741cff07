// Benchmarks that regenerate every table and figure in the paper's
// evaluation. Each benchmark runs the corresponding pipeline end to end
// on a freshly built simulated Internet and reports the paper's
// categorical outcomes as benchmark metrics, so `go test -bench .` both
// measures the harness and re-derives the results.
//
// EXPERIMENTS.md records the paper-vs-measured comparison these produce.
package filtermap_test

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"filtermap"

	"filtermap/internal/blockpage"
	"filtermap/internal/characterize"
	"filtermap/internal/confirm"
	"filtermap/internal/engine"
	"filtermap/internal/fingerprint"
	"filtermap/internal/httpwire"
	"filtermap/internal/measurement"
	"filtermap/internal/netsim"
	"filtermap/internal/proxydetect"
	"filtermap/internal/report"
	"filtermap/internal/simclock"
	"filtermap/internal/urllist"
	"filtermap/internal/world"
)

func mustWorld(b *testing.B, opts filtermap.Options) *filtermap.World {
	b.Helper()
	w, err := filtermap.NewWorld(opts)
	if err != nil {
		b.Fatalf("NewWorld: %v", err)
	}
	b.Cleanup(w.Close)
	return w
}

// BenchmarkTable1ProductInventory regenerates Table 1 (static inventory).
func BenchmarkTable1ProductInventory(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = filtermap.Reporter{}.Table1()
	}
	if !strings.Contains(out, "Netsweeper") {
		b.Fatal("table 1 missing products")
	}
}

// BenchmarkTable2Signatures regenerates Table 2: every product keyword
// must surface its installation in the banner index and every WhatWeb
// signature must validate it.
func BenchmarkTable2Signatures(b *testing.B) {
	w := mustWorld(b, filtermap.Options{})
	ctx := context.Background()
	index, err := w.Scanner().ScanNetwork(ctx)
	if err != nil {
		b.Fatalf("scan: %v", err)
	}
	engine := w.Fingerprinter()

	b.ResetTimer()
	validated := 0
	for i := 0; i < b.N; i++ {
		validated = 0
		for product, keywords := range fingerprint.ShodanKeywords() {
			for _, kw := range keywords {
				hits, err := index.SearchString(kw)
				if err != nil {
					b.Fatalf("query %q: %v", kw, err)
				}
				for _, h := range hits {
					products, err := engine.Products(ctx, h.Addr)
					if err != nil {
						b.Fatalf("fingerprint: %v", err)
					}
					for _, p := range products {
						if p == product {
							validated++
						}
					}
				}
			}
		}
	}
	b.ReportMetric(float64(validated), "validated-matches")
	if validated == 0 {
		b.Fatal("no keyword hit validated as its product")
	}
}

// BenchmarkFigure1InstallationMap regenerates Figure 1: the full §3
// pipeline (scan, keyword fan-out, validation, geo/AS mapping).
func BenchmarkFigure1InstallationMap(b *testing.B) {
	ctx := context.Background()
	var rep *filtermap.IdentifyReport
	for i := 0; i < b.N; i++ {
		w := mustWorld(b, filtermap.Options{})
		var err error
		rep, err = w.RunIdentification(ctx)
		if err != nil {
			b.Fatalf("identification: %v", err)
		}
		w.Close()
	}
	pc := rep.ProductCountries()
	b.ReportMetric(float64(len(rep.Installations)), "installations")
	b.ReportMetric(float64(len(pc["Blue Coat"])), "bluecoat-countries")
	if len(pc["Blue Coat"]) < 10 {
		b.Fatalf("Blue Coat found in %d countries, expected >= 10", len(pc["Blue Coat"]))
	}
}

// BenchmarkTable3CaseStudies regenerates Table 3: all ten confirmation
// campaigns on the paper's timeline.
func BenchmarkTable3CaseStudies(b *testing.B) {
	ctx := context.Background()
	var outcomes []*filtermap.Outcome
	for i := 0; i < b.N; i++ {
		w := mustWorld(b, filtermap.Options{})
		var err error
		outcomes, err = w.RunTable3(ctx)
		if err != nil {
			b.Fatalf("RunTable3: %v", err)
		}
		w.Close()
	}
	confirmed := 0
	for _, o := range outcomes {
		if o.Confirmed {
			confirmed++
		}
	}
	b.ReportMetric(float64(confirmed), "confirmed-rows")
	if confirmed != 7 {
		b.Fatalf("confirmed %d rows, want 7 (per Table 3)", confirmed)
	}
}

// BenchmarkTable4ContentMatrix regenerates Table 4: characterization of
// blocked content in the four confirmed deployments.
func BenchmarkTable4ContentMatrix(b *testing.B) {
	ctx := context.Background()
	var rows []characterize.MatrixRow
	for i := 0; i < b.N; i++ {
		w := mustWorld(b, filtermap.Options{})
		w.Clock.Advance(8 * time.Hour)
		reports, err := w.RunCharacterization(ctx)
		if err != nil {
			b.Fatalf("characterize: %v", err)
		}
		rows = characterize.Matrix(reports)
		w.Close()
	}
	blockedCells := 0
	for _, r := range rows {
		for _, v := range r.Blocked {
			if v {
				blockedCells++
			}
		}
	}
	b.ReportMetric(float64(len(rows)), "matrix-rows")
	b.ReportMetric(float64(blockedCells), "blocked-cells")
	if blockedCells == 0 {
		b.Fatal("no blocked cells in Table 4 matrix")
	}
}

// BenchmarkTable5Evasion regenerates Table 5's evasion analysis: each
// tactic applied to the world, measuring what identification still finds
// and whether confirmation survives.
func BenchmarkTable5Evasion(b *testing.B) {
	ctx := context.Background()
	var rows []report.Table5Row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]

		// Row 1: hide devices from external scans.
		w1 := mustWorld(b, filtermap.Options{HideConsoles: true})
		rep1, err := w1.RunIdentification(ctx)
		if err != nil {
			b.Fatal(err)
		}
		o1 := runPlan(b, w1, "smartfilter-saudi-bayanat")
		rows = append(rows, report.Table5Row{
			Step: "Identify installations", Technique: "Port scans (Shodan-style)",
			Limitation: "Only externally visible installations",
			Evasion:    "Do not allow device to be accessed externally",
			Outcome: fmt.Sprintf("identification: %d installs; confirmation: %s",
				len(rep1.Installations), o1.Ratio()),
		})
		w1.Close()

		// Row 2: scrub identifying headers.
		w2 := mustWorld(b, filtermap.Options{ScrubHeaders: true})
		rep2, err := w2.RunIdentification(ctx)
		if err != nil {
			b.Fatal(err)
		}
		pc := rep2.ProductCountries()
		rows = append(rows, report.Table5Row{
			Step: "Validate installations", Technique: "WhatWeb signatures",
			Limitation: "Requires distinctive protocol headers",
			Evasion:    "Remove evidence of product from headers",
			Outcome: fmt.Sprintf("SmartFilter in %d countries (header-shaped sig dies); Netsweeper in %d (structural sig survives)",
				len(pc[fingerprint.ProductSmartFilter]), len(pc[fingerprint.ProductNetsweeper])),
		})
		w2.Close()

		// Row 3: vendor disregards researcher submissions; countermeasure.
		w3 := mustWorld(b, filtermap.Options{FilterSubmissions: true})
		o3 := runPlan(b, w3, "smartfilter-saudi-bayanat")
		urls, err := w3.ProvisionTestSites(urllist.AdultImage, 10)
		if err != nil {
			b.Fatal(err)
		}
		measure, err := w3.MeasureClient(filtermap.ISPBayanat)
		if err != nil {
			b.Fatal(err)
		}
		counter := &confirm.Campaign{
			Product: "McAfee SmartFilter", Country: "SA", ISP: filtermap.ISPBayanat, ASN: filtermap.ASNBayanat,
			Category: "pornography", CategoryLabel: "Pornography",
			DomainURLs: urls, SubmitCount: 5, PreTest: true, WaitDays: 4, RetestRounds: 3,
			Submit: w3.CounterEvasionSubmitter("McAfee SmartFilter"),
			Wait:   w3.Wait, Measure: measure,
		}
		oc, err := confirm.Run(ctx, counter)
		if err != nil {
			b.Fatal(err)
		}
		rows = append(rows, report.Table5Row{
			Step: "Confirm censorship", Technique: "In-country testing + URL submission",
			Limitation: "Needs in-country testers, category knowledge, fresh domains",
			Evasion:    "Vendor disregards researcher submissions",
			Outcome: fmt.Sprintf("lab submissions: %s; via proxy+webmail: %s",
				o3.Ratio(), oc.Ratio()),
		})
		w3.Close()
	}
	if len(rows) != 3 {
		b.Fatalf("expected 3 evasion rows, got %d", len(rows))
	}
	b.ReportMetric(3, "evasion-scenarios")
}

// BenchmarkDenyPageTests regenerates the §4.4 66-category probe.
func BenchmarkDenyPageTests(b *testing.B) {
	ctx := context.Background()
	blocked := 0
	for i := 0; i < b.N; i++ {
		w := mustWorld(b, filtermap.Options{})
		w.Clock.Advance(8 * time.Hour)
		client, err := w.MeasureClient(filtermap.ISPYemenNet)
		if err != nil {
			b.Fatal(err)
		}
		blocked = 0
		for n := 1; n <= 66; n++ {
			url := fmt.Sprintf("http://denypagetests.netsweeper.com/category/catno/%d", n)
			if res := client.TestURL(ctx, url); res.Verdict == measurement.Blocked {
				blocked++
			}
		}
		w.Close()
	}
	b.ReportMetric(float64(blocked), "blocked-categories")
	if blocked != 5 {
		b.Fatalf("blocked %d of 66 categories, want 5 (per §4.4)", blocked)
	}
}

// BenchmarkChallenge2InconsistentBlocking measures the Yemen fail-open
// windows: fraction of hours in a day during which the license is
// exhausted and filtering is offline.
func BenchmarkChallenge2InconsistentBlocking(b *testing.B) {
	ctx := context.Background()
	failOpen := 0
	for i := 0; i < b.N; i++ {
		w := mustWorld(b, filtermap.Options{})
		client, err := w.MeasureClient(filtermap.ISPYemenNet)
		if err != nil {
			b.Fatal(err)
		}
		failOpen = 0
		for h := 0; h < 24; h++ {
			res := client.TestURL(ctx, "http://global-pornography.org/")
			if res.Verdict == measurement.Accessible {
				failOpen++
			}
			w.Clock.Advance(time.Hour)
		}
		w.Close()
	}
	b.ReportMetric(float64(failOpen), "fail-open-hours")
	if failOpen == 0 || failOpen == 24 {
		b.Fatalf("fail-open hours = %d; expected intermittent blocking", failOpen)
	}
}

// BenchmarkAblationValidationStage quantifies §3.1's design: keyword
// search alone vs search + fingerprint validation (false positives the
// validation stage removes).
func BenchmarkAblationValidationStage(b *testing.B) {
	w := mustWorld(b, filtermap.Options{})
	ctx := context.Background()
	index, err := w.Scanner().ScanNetwork(ctx)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var fpRate float64
	for i := 0; i < b.N; i++ {
		p, err := w.IdentifyPipeline(ctx, index)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := p.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		fpRate = rep.FalsePositiveRate()
	}
	b.ReportMetric(fpRate*100, "fp-rate-%")
	if fpRate <= 0 {
		b.Fatal("expected keyword search to produce false positives for validation to remove")
	}
}

// BenchmarkIdentificationWorkers compares the §3 pipeline serial vs
// pooled: the same pre-built banner index pushed through keyword search,
// fingerprint validation and geo mapping at 1, 2, 4 and 8 workers. The
// network carries a per-dial latency modelling the WAN round trip a real
// scan pays per probe (in-memory dials are otherwise instantaneous and
// would hide the pool's benefit), so ns/op across the sub-benchmarks
// shows the engine's speedup while the reports stay identical.
func BenchmarkIdentificationWorkers(b *testing.B) {
	w := mustWorld(b, filtermap.Options{})
	ctx := context.Background()
	index, err := w.Scanner().ScanNetwork(ctx)
	if err != nil {
		b.Fatal(err)
	}
	w.Net.SetDialLatency(2 * time.Millisecond)
	var baseline *filtermap.IdentifyReport
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var rep *filtermap.IdentifyReport
			for i := 0; i < b.N; i++ {
				p, err := w.IdentifyPipeline(ctx, index)
				if err != nil {
					b.Fatal(err)
				}
				p.Config = p.Config.With(engine.WithWorkers(workers))
				rep, err = p.Run(ctx)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(rep.Installations)), "installations")
			if baseline == nil {
				baseline = rep
			} else if len(rep.Installations) != len(baseline.Installations) {
				b.Fatalf("worker count changed the result: %d vs %d installations",
					len(rep.Installations), len(baseline.Installations))
			}
		})
	}
}

// BenchmarkAblationPreTest quantifies §4.4's pre-test hazard: pre-tested
// domains get auto-queued and blocked without any submission in queueing
// deployments.
func BenchmarkAblationPreTest(b *testing.B) {
	ctx := context.Background()
	taintedBlocked := 0
	for i := 0; i < b.N; i++ {
		w := mustWorld(b, filtermap.Options{})
		w.Clock.Advance(8 * time.Hour)
		urls, err := w.ProvisionTestSites(urllist.GlypeProxy, 4)
		if err != nil {
			b.Fatal(err)
		}
		client, err := w.MeasureClient(filtermap.ISPYemenNet)
		if err != nil {
			b.Fatal(err)
		}
		client.TestList(ctx, urls) // the pre-test: taints via auto-queue
		w.Clock.Advance(simclock.Days(4))
		taintedBlocked = 0
		for _, r := range client.TestList(ctx, urls) {
			if r.Verdict == measurement.Blocked {
				taintedBlocked++
			}
		}
		w.Close()
	}
	b.ReportMetric(float64(taintedBlocked), "blocked-without-submission")
	if taintedBlocked == 0 {
		b.Fatal("pre-tested domains were not auto-categorized")
	}
}

// BenchmarkAblationRawHeaders quantifies the codec design choice: exact
// wire-case header matching distinguishes the genuine "Via-Proxy"
// signature from lookalike casings that a canonicalizing HTTP library
// would collapse together.
func BenchmarkAblationRawHeaders(b *testing.B) {
	genuine := httpwire.NewResponse(200, httpwire.NewHeader("Via-Proxy", "mwg1"), nil)
	lookalike := httpwire.NewResponse(200, httpwire.NewHeader("VIA-PROXY", "imitation"), nil)
	exact := fingerprint.HeaderPresent{ExactName: "Via-Proxy"}

	b.ResetTimer()
	falsePositives := 0
	for i := 0; i < b.N; i++ {
		falsePositives = 0
		if !exact.Match(genuine) {
			b.Fatal("exact matcher missed genuine header")
		}
		if exact.Match(lookalike) {
			falsePositives++
		}
		// A canonicalizing stack cannot tell them apart:
		if lookalike.Header.Has("Via-Proxy") != genuine.Header.Has("Via-Proxy") {
			b.Fatal("case-insensitive lookup should collapse the two")
		}
	}
	b.ReportMetric(float64(falsePositives), "exact-case-false-positives")
}

// BenchmarkBlockPageClassification measures the §5 classifier over the
// vendor corpus.
func BenchmarkBlockPageClassification(b *testing.B) {
	w := mustWorld(b, filtermap.Options{})
	ctx := context.Background()
	client, err := w.MeasureClient(filtermap.ISPEtisalat)
	if err != nil {
		b.Fatal(err)
	}
	res := client.TestURL(ctx, "http://global-pornography.org/")
	if res.Verdict != measurement.Blocked {
		b.Fatalf("setup: expected blocked, got %v", res.Verdict)
	}
	chain := res.Field.Chain
	classifier := blockpage.NewClassifier(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := classifier.ClassifyChain(chain); !ok {
			b.Fatal("classifier missed a known block page")
		}
	}
}

// runPlan runs one named Table 3 plan on a fresh world (bench helper).
func runPlan(b *testing.B, w *world.World, key string) *confirm.Outcome {
	b.Helper()
	for _, p := range w.Table3Plans() {
		if p.Key != key {
			continue
		}
		w.Clock.AdvanceTo(p.StartAt)
		campaign, err := p.Build()
		if err != nil {
			b.Fatalf("build %s: %v", key, err)
		}
		outcome, err := confirm.Run(context.Background(), campaign)
		if err != nil {
			b.Fatalf("run %s: %v", key, err)
		}
		return outcome
	}
	b.Fatalf("no plan %q", key)
	return nil
}

// BenchmarkProxyDetectSurvey measures the §7 extension: a signature-free
// transparent-proxy sweep over the six case-study ISPs plus the control,
// validated against the §4 ground truth.
func BenchmarkProxyDetectSurvey(b *testing.B) {
	w := mustWorld(b, filtermap.Options{})
	ref, err := w.Net.AddHost(netip.MustParseAddr("160.153.200.1"), "echo.bench.example", nil)
	if err != nil {
		b.Fatal(err)
	}
	srv := &httpwire.Server{Handler: proxydetect.EchoHandler()}
	if _, err := ref.Serve(80, netsim.Public, srv); err != nil {
		b.Fatal(err)
	}

	vantages := map[string]*netsim.Host{"control": w.Lab}
	truth := proxydetect.GroundTruth{"control": false}
	for _, isp := range []string{
		filtermap.ISPEtisalat, filtermap.ISPDu, filtermap.ISPOoredoo,
		filtermap.ISPBayanat, filtermap.ISPNournet, filtermap.ISPYemenNet,
	} {
		vantages[isp] = w.FieldHosts[isp]
		truth[isp] = true
	}

	ctx := context.Background()
	b.ResetTimer()
	var v *proxydetect.Validation
	for i := 0; i < b.N; i++ {
		results := proxydetect.Survey(ctx, "echo.bench.example", vantages)
		v = proxydetect.Validate(results, truth)
	}
	b.ReportMetric(v.Precision(), "precision")
	b.ReportMetric(v.Recall(), "recall")
	if v.Precision() != 1 || v.Recall() != 1 {
		b.Fatalf("survey scored %s", v.Summary())
	}
}
