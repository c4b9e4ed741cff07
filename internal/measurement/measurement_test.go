package measurement

import (
	"bufio"
	"context"
	"net"
	"net/netip"
	"testing"

	"filtermap/internal/httpwire"
	"filtermap/internal/netsim"
)

// fixture builds: an origin server, an ISP whose interceptor blocks a
// specific hostname with a Netsweeper-style redirect, a field host inside
// the ISP and a lab host outside.
type fixture struct {
	net    *netsim.Network
	client *Client
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	n := netsim.New(nil)
	t.Cleanup(n.Close)

	isp, err := n.AddISP("YemenNet")
	if err != nil {
		t.Fatal(err)
	}
	field, err := n.AddHost(netip.MustParseAddr("82.114.161.20"), "", isp)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := n.AddHost(netip.MustParseAddr("128.100.50.10"), "lab.example", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Origin servers.
	serve := func(ip, name string) {
		h, err := n.AddHost(netip.MustParseAddr(ip), name, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv := &httpwire.Server{Handler: httpwire.HandlerFunc(func(req *httpwire.Request) *httpwire.Response {
			return httpwire.NewResponse(200, nil, []byte("content of "+name))
		})}
		if _, err := h.Serve(80, netsim.Public, srv); err != nil {
			t.Fatal(err)
		}
	}
	serve("192.0.2.1", "allowed.example")
	serve("192.0.2.2", "banned.example")
	serve("192.0.2.4", "flaky.example")

	// Deny page host inside the ISP.
	denyHost, err := n.AddHost(netip.MustParseAddr("82.114.160.1"), "filter.yemen.example", isp)
	if err != nil {
		t.Fatal(err)
	}
	denySrv := &httpwire.Server{Handler: httpwire.HandlerFunc(func(req *httpwire.Request) *httpwire.Response {
		return httpwire.NewResponse(200, nil, []byte("<p>This page has been denied</p><p>Powered by Netsweeper</p>"))
	})}
	if _, err := denyHost.Serve(8080, netsim.Public, denySrv); err != nil {
		t.Fatal(err)
	}

	// Interceptor: block banned.example with a deny redirect; drop
	// flaky.example connections silently (an unattributable anomaly).
	isp.SetInterceptor(blockInterceptor{})

	client := &Client{
		Field: &Vantage{Name: "field:YemenNet", Host: field},
		Lab:   &Vantage{Name: "lab", Host: lab},
	}
	return &fixture{net: n, client: client}
}

// blockInterceptor answers banned.example with a Netsweeper-style
// redirect and kills flaky.example connections without a response.
type blockInterceptor struct{}

func (blockInterceptor) Intercept(info netsim.DialInfo) netsim.Handler {
	switch info.Hostname {
	case "banned.example":
		return netsim.HandlerFunc(func(conn net.Conn) {
			defer conn.Close()
			// Read the request before answering, as a middlebox that
			// answers it does: a close that beat the client's write
			// would fail that write, and the verdict with it.
			if _, err := httpwire.ReadRequest(bufio.NewReader(conn)); err != nil {
				return
			}
			resp := httpwire.NewResponse(302, httpwire.NewHeader(
				"Location", "http://filter.yemen.example:8080/webadmin/deny/index.php?cat=23&url=http%3A%2F%2Fbanned.example%2F",
				"Connection", "close"), nil)
			resp.WriteTo(conn) //nolint:errcheck // test
		})
	case "flaky.example":
		return netsim.HandlerFunc(func(conn net.Conn) {
			conn.Close() // RST-style failure, no block page
		})
	}
	return nil
}

func TestAccessibleVerdict(t *testing.T) {
	f := newFixture(t)
	res := f.client.TestURL(context.Background(), "http://allowed.example/")
	if res.Verdict != Accessible {
		t.Fatalf("verdict = %v, want accessible (field err=%v lab err=%v)", res.Verdict, res.Field.Err, res.Lab.Err)
	}
}

func TestBlockedVerdictWithAttribution(t *testing.T) {
	f := newFixture(t)
	res := f.client.TestURL(context.Background(), "http://banned.example/")
	if res.Verdict != Blocked {
		t.Fatalf("verdict = %v, want blocked", res.Verdict)
	}
	if !res.Matched || res.BlockMatch.Product != "Netsweeper" {
		t.Fatalf("attribution = %+v", res.BlockMatch)
	}
	// The lab must still see the real content.
	if !res.Lab.OK() {
		t.Fatal("lab fetch failed")
	}
}

func TestAnomalyVerdict(t *testing.T) {
	f := newFixture(t)
	res := f.client.TestURL(context.Background(), "http://flaky.example/")
	if res.Verdict != Anomaly {
		t.Fatalf("verdict = %v, want anomaly", res.Verdict)
	}
}

func TestUnreachableVerdict(t *testing.T) {
	f := newFixture(t)
	res := f.client.TestURL(context.Background(), "http://no-such-site.example/")
	if res.Verdict != Unreachable {
		t.Fatalf("verdict = %v, want unreachable", res.Verdict)
	}
}

func TestTestListOrderAndSummary(t *testing.T) {
	f := newFixture(t)
	urls := []string{
		"http://allowed.example/",
		"http://banned.example/",
		"http://flaky.example/",
		"http://no-such-site.example/",
	}
	results := f.client.TestList(context.Background(), urls)
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.URL != urls[i] {
			t.Fatalf("result %d url = %q, want %q", i, r.URL, urls[i])
		}
	}
	for i, want := range []Verdict{Accessible, Blocked, Anomaly, Unreachable} {
		if results[i].Verdict != want {
			t.Fatalf("result %d verdict = %v, want %v", i, results[i].Verdict, want)
		}
	}
	if !results[1].Matched || results[1].BlockMatch.Product != "Netsweeper" {
		t.Fatalf("blocked result attribution = %+v", results[1].BlockMatch)
	}
}

func TestRepeatAndConsistency(t *testing.T) {
	f := newFixture(t)
	urls := []string{"http://allowed.example/", "http://banned.example/"}
	var runs [][]Result
	for i := 0; i < 3; i++ {
		runs = append(runs, f.client.TestList(context.Background(), urls))
	}
	rep := AnalyzeConsistency(runs)
	if !rep.Consistent() {
		t.Fatalf("stable fixture reported flaky URLs: %v", rep.FlakyURLs)
	}
	if len(rep.AlwaysBlocked) != 1 || rep.AlwaysBlocked[0] != "http://banned.example/" {
		t.Fatalf("always blocked = %v", rep.AlwaysBlocked)
	}
	if len(rep.NeverBlocked) != 1 {
		t.Fatalf("never blocked = %v", rep.NeverBlocked)
	}
}

func TestAnalyzeConsistencyFlaky(t *testing.T) {
	mk := func(url string, v Verdict) Result { return Result{URL: url, Verdict: v} }
	runs := [][]Result{
		{mk("http://a/", Blocked), mk("http://b/", Blocked)},
		{mk("http://a/", Accessible), mk("http://b/", Blocked)},
	}
	rep := AnalyzeConsistency(runs)
	if rep.Consistent() {
		t.Fatal("flaky runs reported consistent")
	}
	if len(rep.FlakyURLs) != 1 || rep.FlakyURLs[0] != "http://a/" {
		t.Fatalf("flaky = %v", rep.FlakyURLs)
	}
	if len(rep.AlwaysBlocked) != 1 || rep.AlwaysBlocked[0] != "http://b/" {
		t.Fatalf("always = %v", rep.AlwaysBlocked)
	}
}

func TestAnalyzeConsistencyEmpty(t *testing.T) {
	rep := AnalyzeConsistency(nil)
	if rep.Runs != 0 || !rep.Consistent() {
		t.Fatalf("empty analysis = %+v", rep)
	}
}

func TestVerdictString(t *testing.T) {
	cases := map[Verdict]string{
		Accessible: "accessible", Blocked: "blocked",
		Unreachable: "unreachable", Anomaly: "anomaly",
		Verdict(7): "Verdict(7)",
	}
	for v, want := range cases {
		if v.String() != want {
			t.Errorf("%d.String() = %q", int(v), v.String())
		}
	}
}

func TestFetchHelpers(t *testing.T) {
	var f Fetch
	if f.Final() != nil || f.OK() {
		t.Fatal("zero Fetch should have no final response")
	}
	f.Chain = []*httpwire.Response{httpwire.NewResponse(302, nil, nil), httpwire.NewResponse(200, nil, nil)}
	if f.Final().StatusCode != 200 || !f.OK() {
		t.Fatal("Final/OK wrong")
	}
}
