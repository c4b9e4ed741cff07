package identify

import (
	"context"
	"net"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"filtermap/internal/engine"
	"filtermap/internal/fingerprint"
	"filtermap/internal/geo"
	"filtermap/internal/httpwire"
	"filtermap/internal/netsim"
	"filtermap/internal/scanner"
)

// fixture: a genuine Netsweeper console, a genuine McAfee gateway, and a
// decoy blog that mentions both; geolocation and whois wired up.
type fixture struct {
	net      *netsim.Network
	pipeline *Pipeline
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	n := netsim.New(nil)
	t.Cleanup(n.Close)

	vantage, err := n.AddHost(netip.MustParseAddr("198.108.1.10"), "scan.example", nil)
	if err != nil {
		t.Fatal(err)
	}

	geoDB := &geo.DB{}
	asTable := &geo.ASTable{}
	addNet := func(asn int, name, cc, cidr string) {
		p := netip.MustParsePrefix(cidr)
		geoDB.Add(p, cc)
		asTable.Add(geo.ASRecord{ASN: asn, Name: name, Country: cc, Prefix: p})
	}
	addNet(12486, "YEMENNET", "YE", "82.114.160.0/19")
	addNet(48237, "BAYANAT", "SA", "77.30.0.0/16")
	addNet(64553, "BLOGHOST", "US", "205.140.0.0/16")
	addNet(237, "RESEARCH", "US", "198.108.0.0/16")

	serve := func(ip, name string, port uint16, h httpwire.Handler) {
		host, err := n.AddHost(netip.MustParseAddr(ip), name, nil)
		if err != nil {
			t.Fatal(err)
		}
		l, err := host.Listen(port)
		if err != nil {
			t.Fatal(err)
		}
		srv := &httpwire.Server{Handler: h}
		go srv.Serve(l) //nolint:errcheck // ends with listener
	}
	static := func(hdr *httpwire.Header, body string) httpwire.Handler {
		return httpwire.HandlerFunc(func(*httpwire.Request) *httpwire.Response {
			return httpwire.NewResponse(200, hdr.Clone(), []byte(body))
		})
	}

	serve("82.114.160.1", "ns1.yemen.net.ye", 8080,
		static(httpwire.NewHeader("Server", "Apache (Netsweeper WebAdmin)", "Content-Type", "text/html"),
			"<title>Netsweeper WebAdmin Login</title>"))
	serve("77.30.1.1", "mwg1.bayanat.net.sa", 80,
		static(httpwire.NewHeader("Via-Proxy", "mwg1", "Content-Type", "text/html"),
			"<title>McAfee Web Gateway</title>"))
	serve("205.140.1.1", "techblog.example", 80,
		static(httpwire.NewHeader("Server", "nginx", "Content-Type", "text/html"),
			"<title>Blog</title><p>netsweeper webadmin mcafee web gateway url blocked proxysg cfru=</p>"))

	// Whois service.
	whoisHost, err := n.AddHost(netip.MustParseAddr("38.229.1.1"), "whois.example", nil)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := whoisHost.Listen(43)
	if err != nil {
		t.Fatal(err)
	}
	wsrv := &geo.WhoisServer{Table: asTable}
	go wsrv.Serve(wl) //nolint:errcheck // ends with listener

	sc := scanner.New(vantage, engine.WithTimeout(2*time.Second))
	index, err := sc.ScanNetwork(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	return &fixture{
		net: n,
		pipeline: &Pipeline{
			Index:         index,
			Fingerprinter: &fingerprint.Engine{Vantage: vantage, Timeout: 2 * time.Second},
			GeoDB:         geoDB,
			Whois: &geo.WhoisClient{Dial: func(ctx context.Context) (net.Conn, error) {
				return vantage.Dial(ctx, netip.MustParseAddr("38.229.1.1"), 43)
			}},
		},
	}
}

func TestPipelineValidatesAndMaps(t *testing.T) {
	f := newFixture(t)
	rep, err := f.pipeline.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Installations) != 2 {
		t.Fatalf("installations = %d, want 2 (decoy rejected)", len(rep.Installations))
	}
	byHost := map[string]Installation{}
	for _, inst := range rep.Installations {
		byHost[inst.Hostname] = inst
	}
	ns := byHost["ns1.yemen.net.ye"]
	if !ns.HasProduct(fingerprint.ProductNetsweeper) || ns.Country != "YE" || ns.ASN != 12486 {
		t.Fatalf("netsweeper installation = %+v", ns)
	}
	mwg := byHost["mwg1.bayanat.net.sa"]
	if !mwg.HasProduct(fingerprint.ProductSmartFilter) || mwg.Country != "SA" || mwg.ASN != 48237 {
		t.Fatalf("smartfilter installation = %+v", mwg)
	}
	if mwg.ASName == "" {
		t.Fatal("AS name not resolved via whois")
	}
}

func TestPipelineCountsFalsePositives(t *testing.T) {
	f := newFixture(t)
	rep, err := f.pipeline.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The decoy is a candidate for several products but validates for
	// none.
	if rep.CandidateCount <= rep.ValidatedCount {
		t.Fatalf("candidates %d, validated %d: expected false positives", rep.CandidateCount, rep.ValidatedCount)
	}
	if rep.FalsePositiveRate() <= 0 || rep.FalsePositiveRate() >= 1 {
		t.Fatalf("fp rate = %f", rep.FalsePositiveRate())
	}
}

func TestProductCountries(t *testing.T) {
	f := newFixture(t)
	rep, err := f.pipeline.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pc := rep.ProductCountries()
	if got := pc[fingerprint.ProductNetsweeper]; len(got) != 1 || got[0] != "YE" {
		t.Fatalf("netsweeper countries = %v", got)
	}
	if got := pc[fingerprint.ProductSmartFilter]; len(got) != 1 || got[0] != "SA" {
		t.Fatalf("smartfilter countries = %v", got)
	}
}

func TestInstallationsIn(t *testing.T) {
	f := newFixture(t)
	rep, err := f.pipeline.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.InstallationsIn(fingerprint.ProductNetsweeper, "YE"); len(got) != 1 {
		t.Fatalf("InstallationsIn(NE, YE) = %d", len(got))
	}
	if got := rep.InstallationsIn(fingerprint.ProductNetsweeper, "SA"); len(got) != 0 {
		t.Fatalf("InstallationsIn(NE, SA) = %d", len(got))
	}
}

func TestPipelineWithoutWhois(t *testing.T) {
	f := newFixture(t)
	f.pipeline.Whois = nil
	rep, err := f.pipeline.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range rep.Installations {
		if inst.ASN != 0 {
			t.Fatal("ASN resolved without whois")
		}
		if inst.Country == "" {
			t.Fatal("country should still come from the geolocation DB")
		}
	}
}

func TestPipelineNoIndex(t *testing.T) {
	p := &Pipeline{}
	if _, err := p.Run(context.Background()); err == nil {
		t.Fatal("pipeline without index succeeded")
	}
}

func TestPipelineExplicitCountryFanout(t *testing.T) {
	f := newFixture(t)
	// Restrict the fan-out to one country: results must be unchanged
	// because bare keyword queries run regardless (the country filter only
	// adds results in the real Shodan, never removes).
	f.pipeline.Countries = []string{"YE"}
	rep, err := f.pipeline.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Installations) != 2 {
		t.Fatalf("installations = %d", len(rep.Installations))
	}
}

func TestPipelineRecordsQueryErrorsAndContinues(t *testing.T) {
	f := newFixture(t)
	// One malformed keyword (bad port: filter) alongside a working one:
	// the bad query must be reported, not abort the run.
	f.pipeline.Keywords = map[string][]string{
		fingerprint.ProductNetsweeper:  {"netsweeper webadmin", "port:notaport"},
		fingerprint.ProductSmartFilter: {"mcafee web gateway"},
	}
	rep, err := f.pipeline.Run(context.Background())
	if err != nil {
		t.Fatalf("Run aborted on a recoverable query error: %v", err)
	}
	if len(rep.QueryErrors) == 0 {
		t.Fatal("no QueryErrors recorded for the malformed keyword")
	}
	for _, qe := range rep.QueryErrors {
		if qe.Product != fingerprint.ProductNetsweeper {
			t.Fatalf("query error attributed to %q", qe.Product)
		}
		if qe.Err == nil || qe.Query == "" {
			t.Fatalf("incomplete query error %+v", qe)
		}
	}
	// The working keywords still validated both genuine installations.
	if len(rep.Installations) != 2 {
		t.Fatalf("installations = %d, want 2 despite query errors", len(rep.Installations))
	}
}

func TestPipelineParallelMatchesSerial(t *testing.T) {
	// Run the same pipeline serially and with an 8-worker pool (under
	// -race this also exercises the concurrent validation path) and
	// require identical reports.
	serial := newFixture(t)
	serial.pipeline.Config = engine.NewConfig(engine.WithWorkers(1))
	want, err := serial.pipeline.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	stats := engine.NewStats()
	parallel := newFixture(t)
	parallel.pipeline.Config = engine.NewConfig(engine.WithWorkers(8), engine.WithStats(stats))
	got, err := parallel.pipeline.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if got.CandidateCount != want.CandidateCount || got.ValidatedCount != want.ValidatedCount {
		t.Fatalf("counts diverge: parallel %d/%d, serial %d/%d",
			got.CandidateCount, got.ValidatedCount, want.CandidateCount, want.ValidatedCount)
	}
	if !reflect.DeepEqual(got.Installations, want.Installations) {
		t.Fatalf("installations diverge:\nparallel: %+v\nserial:   %+v", got.Installations, want.Installations)
	}
	if !reflect.DeepEqual(got.CandidatesByProduct, want.CandidatesByProduct) {
		t.Fatalf("candidates diverge:\nparallel: %+v\nserial:   %+v", got.CandidatesByProduct, want.CandidatesByProduct)
	}

	for _, stage := range []string{StageSearch, StageValidate, StageGeo} {
		snap := stats.Snapshot().Stage(stage)
		if snap.Attempts == 0 {
			t.Fatalf("stage %s recorded no attempts", stage)
		}
		if snap.P50 <= 0 || snap.P99 < snap.P50 {
			t.Fatalf("stage %s quantiles = p50 %v p99 %v", stage, snap.P50, snap.P99)
		}
	}
}
