package filtermap_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"filtermap"

	"filtermap/internal/engine"
	"filtermap/internal/report"
	"filtermap/internal/server"
	"filtermap/internal/world"
)

// End-to-end coverage of the discovery subsystem: the crawl must
// surface blocked URLs absent from every curated list, replay
// byte-for-byte (testdata/discovery.golden; regenerate with
// `make discover-golden`), and produce the same document through the
// CLI path and POST /v1/discover.

func TestGoldenDiscovery(t *testing.T) {
	w, err := filtermap.NewWorld(filtermap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Clock.Advance(8 * time.Hour)

	targets, err := w.RunDiscovery(context.Background(), filtermap.DiscoveryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// The crawl's whole point: novel blocked URLs the seed lists miss.
	curated := world.CuratedDomains()
	novel := 0
	for _, tgt := range targets {
		for _, f := range tgt.Report.Novel() {
			novel++
			if curated[f.Domain] {
				t.Errorf("%s marked novel but %s is on a curated list", f.URL, f.Domain)
			}
		}
	}
	if novel < 5 {
		t.Fatalf("discovered %d novel blocked URLs across targets, want >= 5", novel)
	}

	var r filtermap.Reporter
	compareGolden(t, "discovery.golden", r.Discovery(0, 0, targets))
	compareGoldenDoc(t, "discovery.golden", r.DiscoveryJSON(0, 0, targets), report.Discovery)
}

// TestDiscoverEndpointMatchesCLIDocument keeps an independent reference
// for every served plan document: POST /v1/{kind}?wait=1 must return
// the bytes of the facade's own rendering of a fresh world positioned
// the way the CLIs position it. Standalone and clustered serving share
// one execution path, so the cluster goldens cannot catch a drift in
// that path; this comparison can.
func TestDiscoverEndpointMatchesCLIDocument(t *testing.T) {
	const rounds, budget = 2, 40
	isps := []string{"YemenNet"}
	ctx := context.Background()

	srv, err := server.New(server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck // test teardown
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var r filtermap.Reporter
	cases := []struct {
		kind    string
		body    server.PlanRequest
		world   filtermap.Options
		advance time.Duration
		render  func(w *filtermap.World) (any, error)
	}{
		{
			kind: "identify",
			render: func(w *filtermap.World) (any, error) {
				rep, err := w.RunIdentification(ctx)
				return r.IdentifyJSON(rep), err
			},
		},
		{
			kind:    "characterize",
			advance: 8 * time.Hour,
			render: func(w *filtermap.World) (any, error) {
				reports, err := w.RunCharacterization(ctx)
				return r.Table4JSON(reports), err
			},
		},
		{
			kind:    "discover",
			body:    server.PlanRequest{ISPs: isps, Rounds: rounds, Budget: budget},
			advance: 8 * time.Hour,
			render: func(w *filtermap.World) (any, error) {
				targets, err := w.RunDiscovery(ctx, filtermap.DiscoveryOptions{
					ISPs: isps, Rounds: rounds, Budget: budget,
				})
				return r.DiscoveryJSON(rounds, budget, targets), err
			},
		},
		{
			kind:  "mechanisms",
			world: filtermap.Options{Mechanisms: &filtermap.MechanismOptions{}},
			render: func(w *filtermap.World) (any, error) {
				targets, err := w.RunMechanismSurvey(ctx)
				return r.MechanismsJSON(targets), err
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			reqBody, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/"+tc.kind+"?wait=1", "application/json", bytes.NewReader(reqBody))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /v1/%s status = %d", tc.kind, resp.StatusCode)
			}
			var viaServer bytes.Buffer
			if _, err := viaServer.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}

			// The CLI path: same world configuration, same warm-up.
			w, err := filtermap.NewWorld(tc.world)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			w.Clock.Advance(tc.advance)
			doc, err := tc.render(w)
			if err != nil {
				t.Fatal(err)
			}
			viaCLI, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}

			if got, want := bytes.TrimSpace(viaServer.Bytes()), bytes.TrimSpace(viaCLI); !bytes.Equal(got, want) {
				t.Fatalf("documents diverge:\nserver: %.600s\ncli:    %.600s", got, want)
			}
		})
	}
}

// BenchmarkDiscoveryRounds measures the crawl's probe fan-out at
// different worker counts over one target; dial latency makes the
// parallelism visible. The report must not vary with the worker count.
func BenchmarkDiscoveryRounds(b *testing.B) {
	w := mustWorld(b, filtermap.Options{})
	w.Clock.Advance(8 * time.Hour)
	w.Net.SetDialLatency(2 * time.Millisecond)
	ctx := context.Background()
	seeds := w.DiscoverySeeds("AE")

	var baseline *filtermap.DiscoveryReport
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var rep *filtermap.DiscoveryReport
			for i := 0; i < b.N; i++ {
				c, err := w.NewCrawler(filtermap.ISPEtisalat, 0, 0)
				if err != nil {
					b.Fatal(err)
				}
				c.Config = c.Config.With(engine.WithWorkers(workers))
				rep = c.Crawl(ctx, seeds)
			}
			b.ReportMetric(float64(len(rep.Novel())), "novel")
			if baseline == nil {
				baseline = rep
			} else if len(rep.Findings) != len(baseline.Findings) || rep.Probed != baseline.Probed {
				b.Fatalf("worker count changed the crawl: %d/%d findings, %d/%d probed",
					len(rep.Findings), len(baseline.Findings), rep.Probed, baseline.Probed)
			}
		})
	}
}
