package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"filtermap/internal/fingerprint"
	"filtermap/internal/plan"
	"filtermap/internal/report"
	"filtermap/internal/world"
)

// newTestServer builds a Server plus an httptest front end and tears
// both down with the test.
func newTestServer(t testing.TB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return srv, ts
}

// doJSON posts body (marshaled unless nil) and decodes the response into
// out (unless nil), returning the raw response.
func doJSON(t testing.TB, method, url string, body, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("unmarshal %s %s (%d): %v\n%s", method, url, resp.StatusCode, err, raw)
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	return resp
}

func wantStatus(t testing.TB, resp *http.Response, want int) {
	t.Helper()
	if resp.StatusCode != want {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want %d; body: %s", resp.StatusCode, want, body)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var doc map[string]any
	resp := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &doc)
	wantStatus(t, resp, http.StatusOK)
	if doc["status"] != "ok" {
		t.Fatalf("healthz status = %v, want ok", doc["status"])
	}
}

func TestIdentifyEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// First synchronous call runs the pipeline.
	var doc report.IdentifyDoc
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/identify?wait=1", nil, &doc)
	wantStatus(t, resp, http.StatusOK)
	if doc.ValidatedCount == 0 || len(doc.Installations) == 0 {
		t.Fatalf("identify found nothing: %+v", doc)
	}
	if len(doc.ProductCountries) == 0 {
		t.Fatal("identify returned no product->countries map")
	}
	var first MetricsDoc
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &first)
	scanned := first.Engine.Stage("scan").Attempts
	if scanned == 0 {
		t.Fatal("the first identify run recorded no scan")
	}

	// Second call (no wait) must answer from the cache, synchronously.
	var cached report.IdentifyDoc
	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/identify", nil, &cached)
	wantStatus(t, resp, http.StatusOK)
	if cached.ValidatedCount != doc.ValidatedCount {
		t.Fatalf("cached validated = %d, want %d", cached.ValidatedCount, doc.ValidatedCount)
	}

	// A parameterized request is a different cache key: it gets enqueued.
	var jd JobDoc
	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/identify",
		IdentifyRequest{Countries: []string{"YE"}}, &jd)
	wantStatus(t, resp, http.StatusAccepted)
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+jd.ID {
		t.Fatalf("Location = %q, want /v1/jobs/%s", loc, jd.ID)
	}
	waitForJob(t, ts, jd.ID)

	// Reports ride the same cache: figure1 is the default identify doc.
	var fig report.IdentifyDoc
	resp = doJSON(t, http.MethodGet, ts.URL+"/v1/reports/figure1", nil, &fig)
	wantStatus(t, resp, http.StatusOK)
	if fig.ValidatedCount != doc.ValidatedCount {
		t.Fatalf("figure1 validated = %d, want %d", fig.ValidatedCount, doc.ValidatedCount)
	}
	var inst struct {
		Installations []report.InstallationDoc `json:"installations"`
	}
	resp = doJSON(t, http.MethodGet, ts.URL+"/v1/reports/installations", nil, &inst)
	wantStatus(t, resp, http.StatusOK)
	if len(inst.Installations) != len(doc.Installations) {
		t.Fatalf("installations = %d, want %d", len(inst.Installations), len(doc.Installations))
	}

	// Metrics must show exactly one identify pipeline run so far for the
	// default request, plus the parameterized job's run.
	var md MetricsDoc
	resp = doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &md)
	wantStatus(t, resp, http.StatusOK)
	if md.Runs[KindIdentify] != 2 {
		t.Fatalf("identify runs = %d, want 2 (default + YE-only)", md.Runs[KindIdentify])
	}
	if md.Cache.Hits == 0 {
		t.Fatalf("cache hits = 0, want > 0: %+v", md.Cache)
	}
	if len(md.Engine.Stages) == 0 {
		t.Fatal("metrics carry no engine stage stats")
	}
	// Both runs used the base world and its one banner scan.
	if got := md.Engine.Stage("scan").Attempts; got != scanned {
		t.Fatalf("scan attempts = %d after two identify runs, want %d (one scan of the base world)", got, scanned)
	}
}

func TestIdentifyRejectsUnknownProduct(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/identify?wait=1",
		IdentifyRequest{Products: []string{"NotAProduct"}}, nil)
	wantStatus(t, resp, http.StatusBadRequest)
}

// TestIdentifyCountryCodes: an identify country is a two-letter code,
// never query syntax. Anything else is a 400 naming it, and the case of
// a code does not make a second cache entry.
func TestIdentifyCountryCodes(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var e map[string]string
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/identify?wait=1",
		IdentifyRequest{Products: []string{"Netsweeper"}, Countries: []string{"SA port:x"}}, &e)
	wantStatus(t, resp, http.StatusBadRequest)
	if !strings.Contains(e["error"], `"SA port:x"`) {
		t.Fatalf("error %q does not name the bad country", e["error"])
	}

	lower := doJSON(t, http.MethodPost, ts.URL+"/v1/identify?wait=1",
		IdentifyRequest{Products: []string{"Netsweeper"}, Countries: []string{"sa"}}, nil)
	wantStatus(t, lower, http.StatusOK)
	// Without ?wait=1 only a cache hit answers 200.
	upper := doJSON(t, http.MethodPost, ts.URL+"/v1/identify",
		IdentifyRequest{Products: []string{"Netsweeper"}, Countries: []string{"SA"}}, nil)
	wantStatus(t, upper, http.StatusOK)
	a, _ := io.ReadAll(lower.Body) //nolint:errcheck // doJSON buffered the body
	b, _ := io.ReadAll(upper.Body) //nolint:errcheck
	if !bytes.Equal(a, b) {
		t.Fatalf("sa and SA answer different documents:\n%s\n%s", a, b)
	}
}

// identifyProducts lists the Table 2 product names, sorted.
func identifyProducts() []string {
	var out []string
	for p := range fingerprint.ShodanKeywords() {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// productSubsets lists every non-empty subset of products.
func productSubsets(products []string) [][]string {
	var out [][]string
	for mask := 1; mask < 1<<len(products); mask++ {
		var ps []string
		for i, p := range products {
			if mask&(1<<i) != 0 {
				ps = append(ps, p)
			}
		}
		out = append(out, ps)
	}
	return out
}

// TestServedIdentifyMatchesFreshWorld: a long-lived server answers every
// identify request from its replica, which validates each candidate
// once and reuses the outcome; each answer must be the bytes a fresh
// world gives the same request.
func TestServedIdentifyMatchesFreshWorld(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	for _, countries := range [][]string{nil, {"SA", "YE"}} {
		for _, products := range productSubsets(identifyProducts()) {
			body := IdentifyRequest{Products: products, Countries: countries}
			resp := doJSON(t, http.MethodPost, ts.URL+"/v1/identify?wait=1", body, nil)
			wantStatus(t, resp, http.StatusOK)
			got, _ := io.ReadAll(resp.Body) //nolint:errcheck // doJSON buffered the body

			req, err := srv.planRequest(KindIdentify, body)
			if err != nil {
				t.Fatal(err)
			}
			w, err := world.Build(req.World)
			if err != nil {
				t.Fatal(err)
			}
			doc, _, err := plan.Execute(context.Background(), w, *req)
			w.Close()
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			if string(bytes.TrimSuffix(got, []byte("\n"))) != string(want) {
				t.Fatalf("products %v countries %v: served\n%.400s\nfresh world\n%.400s", products, countries, got, want)
			}
		}
	}
}

func TestConfirmSingleCampaign(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var doc report.Table3Doc
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/confirm?wait=1",
		ConfirmRequest{Campaign: "smartfilter-saudi-bayanat"}, &doc)
	wantStatus(t, resp, http.StatusOK)
	if len(doc.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(doc.Rows))
	}
	row := doc.Rows[0]
	if row.ISP == "" || row.Country != "SA" {
		t.Fatalf("unexpected row: %+v", row)
	}
	if !row.Confirmed {
		t.Fatalf("campaign not confirmed: %+v", row)
	}

	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/confirm?wait=1",
		ConfirmRequest{Campaign: "no-such-campaign"}, nil)
	wantStatus(t, resp, http.StatusBadRequest)
}

func TestCharacterizeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var doc report.Table4Doc
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/characterize?wait=1",
		PlanRequest{ISPs: []string{"YemenNet"}}, &doc)
	wantStatus(t, resp, http.StatusOK)
	if len(doc.Reports) != 1 || doc.Reports[0].Country != "YE" {
		t.Fatalf("unexpected reports: %+v", doc.Reports)
	}
	if len(doc.Columns) == 0 {
		t.Fatal("characterize doc has no columns")
	}

	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/characterize?wait=1",
		PlanRequest{ISPs: []string{"NoSuchISP"}}, nil)
	wantStatus(t, resp, http.StatusBadRequest)
}

func TestMechanismsEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	var doc report.MechanismsDoc
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/mechanisms?wait=1",
		PlanRequest{ISPs: []string{"Nayatel"}}, &doc)
	wantStatus(t, resp, http.StatusOK)
	if len(doc.Mechanisms) != 1 || doc.Mechanisms[0].ISP != "Nayatel" {
		t.Fatalf("unexpected mechanisms doc: %+v", doc.Mechanisms)
	}
	isp := doc.Mechanisms[0]
	if isp.Censored == 0 || len(isp.Findings) == 0 {
		t.Fatalf("Nayatel survey found nothing: %+v", isp)
	}
	for _, f := range isp.Findings {
		if f.Mechanism == "" || f.Product == "" {
			t.Fatalf("finding missing mechanism or product: %+v", f)
		}
	}
	if doc.Degraded {
		t.Fatal("mechanism survey reported degraded on a healthy world")
	}

	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/mechanisms?wait=1",
		PlanRequest{ISPs: []string{"NoSuchISP"}}, nil)
	wantStatus(t, resp, http.StatusBadRequest)

	// Normalization forces World.Mechanisms on, so a request that spells
	// the flag out coalesces onto the same cache key as one that omits it.
	a, err := srv.planRequest(KindMechanisms, PlanRequest{ISPs: []string{"Nayatel"}})
	if err != nil {
		t.Fatalf("normalize a: %v", err)
	}
	b, err := srv.planRequest(KindMechanisms, PlanRequest{ISPs: []string{"Nayatel"}, World: WorldConfig{Mechanisms: true}})
	if err != nil {
		t.Fatalf("normalize b: %v", err)
	}
	if ka, kb := srv.requestKey(KindMechanisms, a), srv.requestKey(KindMechanisms, b); ka != kb {
		t.Fatalf("request keys differ:\n  %s\n  %s", ka, kb)
	}
}

func TestWorldConfigMechanismsOmittedWhenUnset(t *testing.T) {
	// Mechanism-free request keys must be byte-identical to their
	// pre-mechanism form so cached results and stored snapshot configs
	// survive the upgrade.
	b, err := json.Marshal(WorldConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "mechanisms") {
		t.Fatalf("zero WorldConfig leaks the mechanisms key: %s", b)
	}
	srv, _ := newTestServer(t, Options{})
	plainReq, err := srv.planRequest(KindIdentify, IdentifyRequest{})
	if err != nil {
		t.Fatal(err)
	}
	mechReq, err := srv.planRequest(KindIdentify, IdentifyRequest{World: WorldConfig{Mechanisms: true}})
	if err != nil {
		t.Fatal(err)
	}
	plain, withMech := srv.requestKey(KindIdentify, plainReq), srv.requestKey(KindIdentify, mechReq)
	if plain == withMech {
		t.Fatal("enabling World.Mechanisms must change the request key")
	}
}

func TestReportsMechanisms(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var doc report.MechanismsDoc
	resp := doJSON(t, http.MethodGet, ts.URL+"/v1/reports/mechanisms", nil, &doc)
	wantStatus(t, resp, http.StatusOK)
	if len(doc.Mechanisms) < 9 {
		t.Fatalf("reports/mechanisms surveyed %d ISPs, want the full roster (>= 9)", len(doc.Mechanisms))
	}
}

func TestReportsTable1AndUnknownKind(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var doc report.Table1Doc
	resp := doJSON(t, http.MethodGet, ts.URL+"/v1/reports/table1", nil, &doc)
	wantStatus(t, resp, http.StatusOK)
	if len(doc.Rows) == 0 {
		t.Fatal("table1 has no rows")
	}
	resp = doJSON(t, http.MethodGet, ts.URL+"/v1/reports/nope", nil, nil)
	wantStatus(t, resp, http.StatusNotFound)
}

// waitForJob polls until the job leaves the queue, failing the test if
// it does not finish successfully.
func waitForJob(t testing.TB, ts *httptest.Server, id string) JobDoc {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var jd JobDoc
		resp := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil, &jd)
		wantStatus(t, resp, http.StatusOK)
		switch jd.State {
		case JobDone:
			return jd
		case JobFailed:
			t.Fatalf("job %s failed: %s", id, jd.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobDoc{}
}

func TestJobsLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	var jd JobDoc
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		jobSubmitRequest{Kind: KindIdentify}, &jd)
	wantStatus(t, resp, http.StatusCreated)
	if jd.Kind != KindIdentify {
		t.Fatalf("job kind = %q", jd.Kind)
	}

	// An identical submission while active dedupes onto the same job.
	var dup JobDoc
	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		jobSubmitRequest{Kind: KindIdentify}, &dup)
	if resp.StatusCode == http.StatusOK && dup.ID != jd.ID {
		t.Fatalf("dedupe returned different job %s != %s", dup.ID, jd.ID)
	}

	done := waitForJob(t, ts, jd.ID)
	if len(done.Result) == 0 {
		t.Fatal("finished job carries no result")
	}
	var doc report.IdentifyDoc
	if err := json.Unmarshal(done.Result, &doc); err != nil {
		t.Fatalf("job result is not an identify doc: %v", err)
	}

	var list struct {
		Jobs []JobDoc `json:"jobs"`
	}
	resp = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil, &list)
	wantStatus(t, resp, http.StatusOK)
	if len(list.Jobs) == 0 {
		t.Fatal("job list is empty")
	}

	resp = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-999", nil, nil)
	wantStatus(t, resp, http.StatusNotFound)

	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		jobSubmitRequest{Kind: "frobnicate"}, nil)
	wantStatus(t, resp, http.StatusBadRequest)
}

func TestJobCancel(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	release := make(chan struct{})
	srv.execHook = func(ctx context.Context, kind string) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-release:
			return nil
		}
	}
	defer close(release)

	var jd JobDoc
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		jobSubmitRequest{Kind: KindCharacterize}, &jd)
	wantStatus(t, resp, http.StatusCreated)

	// Wait until the worker picks it up so cancellation exercises the
	// running path.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var cur JobDoc
		doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+jd.ID, nil, &cur)
		if cur.State == JobRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp = doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+jd.ID, nil, nil)
	wantStatus(t, resp, http.StatusOK)

	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var cur JobDoc
		doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+jd.ID, nil, &cur)
		if cur.State == JobFailed {
			if !strings.Contains(cur.Error, "canceled") {
				t.Fatalf("canceled job error = %q", cur.Error)
			}
			// Canceling a finished job conflicts.
			resp = doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+jd.ID, nil, nil)
			wantStatus(t, resp, http.StatusConflict)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never reached failed state after cancel")
}

// TestJobTableBounded: past finishedJobs finished jobs the table forgets
// the oldest, so GET /v1/jobs and the server's memory stay bounded, a
// forgotten id answers 404, and a job still running is never forgotten.
func TestJobTableBounded(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	release := make(chan struct{})
	srv.execHook = func(ctx context.Context, kind string) error {
		if kind != KindCharacterize {
			return fmt.Errorf("no %s run in this test", kind)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-release:
			return nil
		}
	}
	defer close(release)

	var live JobDoc
	wantStatus(t, doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", jobSubmitRequest{Kind: KindCharacterize}, &live), http.StatusCreated)
	var ids []string
	for i := 0; i < finishedJobs+10; i++ {
		var jd JobDoc
		wantStatus(t, doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", jobSubmitRequest{Kind: KindIdentify}, &jd), http.StatusCreated)
		j, ok := srv.jobs.get(jd.ID)
		if !ok {
			t.Fatalf("job %s forgotten before it finished", jd.ID)
		}
		<-j.done
		ids = append(ids, jd.ID)
	}

	var list struct{ Jobs []JobDoc }
	wantStatus(t, doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil, &list), http.StatusOK)
	if len(list.Jobs) != finishedJobs+1 || list.Jobs[0].ID != live.ID {
		t.Fatalf("GET /v1/jobs lists %d jobs starting %+v, want the live %s and %d finished", len(list.Jobs), list.Jobs[0], live.ID, finishedJobs)
	}
	if got := list.Jobs[1].ID; got != ids[10] {
		t.Fatalf("oldest listed finished job = %s, want %s", got, ids[10])
	}
	wantStatus(t, doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+ids[9], nil, nil), http.StatusNotFound)
	wantStatus(t, doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+ids[10], nil, nil), http.StatusOK)
	if c := srv.jobs.counts(); c.Queued+c.Running != 1 || c.Done+c.Failed != finishedJobs {
		t.Fatalf("job counts = %+v, want 1 live and %d finished", c, finishedJobs)
	}
}

// TestSingleflightConcurrentIdentify is the acceptance check: 100
// concurrent identical /v1/identify requests trigger exactly one
// pipeline run, with the dedup visible in /metrics. Run with -race.
func TestSingleflightConcurrentIdentify(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	const n = 100
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/identify?wait=1", "application/json", nil)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var doc report.IdentifyDoc
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			if doc.ValidatedCount == 0 {
				errs <- fmt.Errorf("empty identify doc")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var md MetricsDoc
	resp := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &md)
	wantStatus(t, resp, http.StatusOK)
	if md.Runs[KindIdentify] != 1 {
		t.Fatalf("identify runs = %d, want exactly 1", md.Runs[KindIdentify])
	}
	if md.Cache.Misses != 1 {
		t.Fatalf("cache misses = %d, want 1", md.Cache.Misses)
	}
	if md.Cache.Hits+md.Cache.Coalesced != n-1 {
		t.Fatalf("hits(%d) + coalesced(%d) = %d, want %d",
			md.Cache.Hits, md.Cache.Coalesced, md.Cache.Hits+md.Cache.Coalesced, n-1)
	}
}

// TestGracefulShutdownDrains proves Shutdown waits for in-flight jobs:
// a running job blocks, Shutdown blocks behind it, and once the job is
// released both complete; intake rejects new work meanwhile.
func TestGracefulShutdownDrains(t *testing.T) {
	srv, err := New(Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	var startOnce sync.Once
	srv.execHook = func(ctx context.Context, kind string) error {
		startOnce.Do(func() { close(started) })
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-release:
			return nil
		}
	}

	var jd JobDoc
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		jobSubmitRequest{Kind: KindCharacterize}, &jd)
	wantStatus(t, resp, http.StatusCreated)
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// Shutdown must not return while the job is still executing.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v before the in-flight job finished", err)
	case <-time.After(100 * time.Millisecond):
	}

	// Intake is closed during drain.
	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		jobSubmitRequest{Kind: KindIdentify}, nil)
	wantStatus(t, resp, http.StatusServiceUnavailable)

	close(release)
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Shutdown did not return after the job was released")
	}

	j, ok := srv.jobs.get(jd.ID)
	if !ok {
		t.Fatalf("job %s vanished", jd.ID)
	}
	srv.jobs.mu.Lock()
	state := j.state
	srv.jobs.mu.Unlock()
	if state != JobDone {
		t.Fatalf("drained job state = %s, want done", state)
	}
}

func TestRateLimit(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	_, ts := newTestServer(t, Options{RatePerSec: 1, RateBurst: 2, now: clk.Now})

	for i := 0; i < 2; i++ {
		resp := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, nil)
		wantStatus(t, resp, http.StatusOK)
	}
	resp := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, nil)
	wantStatus(t, resp, http.StatusTooManyRequests)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// healthz is exempt even when the bucket is dry.
	resp = doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil)
	wantStatus(t, resp, http.StatusOK)

	// Tokens refill with time.
	clk.Advance(2 * time.Second)
	resp = doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, nil)
	wantStatus(t, resp, http.StatusOK)
}

func TestRequestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxRequestBytes: 64})
	big := bytes.Repeat([]byte("x"), 1024)
	body := []byte(`{"countries":["` + string(big) + `"]}`)
	resp, err := http.Post(ts.URL+"/v1/identify?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// TestCachedIdentifyIsFaster is the cache-speedup acceptance check: a
// cached /v1/identify answer must be at least 10x faster than the
// uncached pipeline run.
func TestCachedIdentifyIsFaster(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	get := func() time.Duration {
		start := time.Now()
		resp, err := http.Post(ts.URL+"/v1/identify?wait=1", "application/json", nil)
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		return time.Since(start)
	}

	uncached := get()
	// Take the fastest of several cached rounds to keep scheduler noise
	// out of the comparison.
	cached := time.Duration(1<<63 - 1)
	for i := 0; i < 5; i++ {
		if d := get(); d < cached {
			cached = d
		}
	}
	if cached*10 > uncached {
		t.Fatalf("cached path %v is not 10x faster than uncached %v", cached, uncached)
	}
}

type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// BenchmarkServeIdentifyMiss measures the identify miss path in
// process: a one-entry cache and the serve-identify workload's 1,800
// request bodies (every product subset times every unordered pair of
// index countries), cycled through Server.ServeHTTP so that every
// request runs search, validation and whois/geo on the replica.
func BenchmarkServeIdentifyMiss(b *testing.B) {
	w, err := world.Build(world.Options{})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := w.Scanner().ScanNetwork(context.Background())
	w.Close()
	if err != nil {
		b.Fatal(err)
	}
	countries := idx.Countries()
	var bodies [][]byte
	for _, products := range productSubsets(identifyProducts()) {
		for i := range countries {
			for j := i; j < len(countries); j++ {
				cs := []string{countries[i]}
				if j != i {
					cs = append(cs, countries[j])
				}
				body, err := json.Marshal(IdentifyRequest{Products: products, Countries: cs})
				if err != nil {
					b.Fatal(err)
				}
				bodies = append(bodies, body)
			}
		}
	}

	srv, err := New(Options{CacheEntries: 1})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck
	serve := func(body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/identify?wait=1", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status = %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	serve([]byte("{}")) // scan the replica before timing

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(bodies[i%len(bodies)])
	}
}

// BenchmarkServeCachedIdentify measures the cached hot path end to end
// through the HTTP stack (prime once, then hit the result cache).
func BenchmarkServeCachedIdentify(b *testing.B) {
	srv, err := New(Options{})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(srv)
	defer ts.Close()

	prime, err := http.Post(ts.URL+"/v1/identify?wait=1", "application/json", nil)
	if err != nil {
		b.Fatalf("prime: %v", err)
	}
	io.Copy(io.Discard, prime.Body) //nolint:errcheck
	prime.Body.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/identify", "application/json", nil)
		if err != nil {
			b.Fatalf("post: %v", err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status = %d", resp.StatusCode)
		}
	}
}
