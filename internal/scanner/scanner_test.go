package scanner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"filtermap/internal/engine"
	"filtermap/internal/httpwire"
	"filtermap/internal/netsim"
)

// fixture builds a small network: a vantage, an HTTP service with a
// distinctive banner, a second service on a high port, and a silent host.
func fixture(t *testing.T) (*netsim.Network, *Scanner) {
	t.Helper()
	n := netsim.New(nil)
	t.Cleanup(n.Close)

	vantage, err := n.AddHost(netip.MustParseAddr("198.108.1.10"), "scan.example", nil)
	if err != nil {
		t.Fatal(err)
	}

	serve := func(ip, name string, port uint16, resp *httpwire.Response) {
		h, err := n.AddHost(netip.MustParseAddr(ip), name, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv := &httpwire.Server{Handler: httpwire.HandlerFunc(func(*httpwire.Request) *httpwire.Response {
			return httpwire.NewResponse(resp.StatusCode, resp.Header.Clone(), resp.Body)
		})}
		if _, err := h.Serve(port, netsim.Public, srv); err != nil {
			t.Fatal(err)
		}
	}

	serve("192.0.2.1", "ns1.filter.qa", 8080, httpwire.NewResponse(200,
		httpwire.NewHeader("Server", "Apache (Netsweeper WebAdmin)", "Content-Type", "text/html"),
		[]byte("<html><title>Netsweeper WebAdmin Login</title><a href=/webadmin/deny>deny</a></html>")))
	serve("192.0.2.2", "cache.proxy.ae", 80, httpwire.NewResponse(302,
		httpwire.NewHeader("Location", "http://www.cfauth.com/?cfru=aGk=", "Server", "Blue Coat ProxySG"),
		[]byte("<html>redirect</html>")))
	// Silent host: registered but no listeners.
	if _, err := n.AddHost(netip.MustParseAddr("192.0.2.3"), "dark.example", nil); err != nil {
		t.Fatal(err)
	}

	return n, &Scanner{Vantage: vantage, Config: engine.NewConfig(engine.WithTimeout(2 * time.Second))}
}

func TestScanNetworkIndexesBanners(t *testing.T) {
	_, s := fixture(t)
	idx, err := s.ScanNetwork(context.Background())
	if err != nil {
		t.Fatalf("ScanNetwork: %v", err)
	}
	if idx.Len() != 2 {
		t.Fatalf("indexed %d banners, want 2", idx.Len())
	}
	all := idx.All()
	if all[0].Addr.String() != "192.0.2.1" || all[0].Port != 8080 {
		t.Fatalf("first banner = %v:%d", all[0].Addr, all[0].Port)
	}
	if all[0].Hostname != "ns1.filter.qa" || all[0].Country != "QA" {
		t.Fatalf("banner metadata = %q, %q", all[0].Hostname, all[0].Country)
	}
	if all[0].StatusLine != "HTTP/1.1 200 OK" {
		t.Fatalf("status line = %q", all[0].StatusLine)
	}
}

func TestKeywordSearch(t *testing.T) {
	_, s := fixture(t)
	idx, _ := s.ScanNetwork(context.Background())

	cases := []struct {
		query string
		want  int
	}{
		{"netsweeper", 1},
		{"proxysg", 1},
		{"cfru=", 1},
		{`"netsweeper webadmin"`, 1},
		{"nonexistent-keyword", 0},
		{"netsweeper country:QA", 1},
		{"netsweeper country:AE", 0},
		{"netsweeper port:8080", 1},
		{"netsweeper port:80", 0},
		{"8080/webadmin", 1}, // port-qualified path keyword
		{"80/webadmin", 0},
	}
	for _, c := range cases {
		hits, err := idx.SearchString(c.query)
		if err != nil {
			t.Fatalf("SearchString(%q): %v", c.query, err)
		}
		if len(hits) != c.want {
			t.Errorf("query %q returned %d hits, want %d", c.query, len(hits), c.want)
		}
	}
}

func TestSearchMultipleKeywordsAnded(t *testing.T) {
	_, s := fixture(t)
	idx, _ := s.ScanNetwork(context.Background())
	hits, _ := idx.SearchString("netsweeper webadmin")
	if len(hits) != 1 {
		t.Fatalf("AND query hits = %d, want 1", len(hits))
	}
	hits, _ = idx.SearchString("netsweeper proxysg")
	if len(hits) != 0 {
		t.Fatalf("contradictory AND query hits = %d, want 0", len(hits))
	}
}

func TestParseQuery(t *testing.T) {
	q, err := ParseQuery(`"mcafee web gateway" country:sa port:8080 extra`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Country != "SA" || q.Port != 8080 {
		t.Fatalf("filters = %q, %d", q.Country, q.Port)
	}
	if len(q.Keywords) != 2 || q.Keywords[0] != "mcafee web gateway" || q.Keywords[1] != "extra" {
		t.Fatalf("keywords = %v", q.Keywords)
	}

	// A keyword is port-qualified only when all of it before the first
	// slash is a port: "8080x/webadmin/" is a plain substring.
	q, err = ParseQuery("8080/webadmin/ 8080x/webadmin/")
	if err != nil {
		t.Fatal(err)
	}
	cq := q.Compile()
	if len(cq.ports) != 1 || cq.ports[0].port != 8080 || string(cq.ports[0].path) != "/webadmin/" {
		t.Fatalf("port-qualified keywords = %+v, want 8080 /webadmin/", cq.ports)
	}
	if len(cq.plain) != 1 || string(cq.plain[0]) != "8080x/webadmin/" {
		t.Fatalf("plain keywords = %q, want [8080x/webadmin/]", cq.plain)
	}
}

func TestParseQueryBadPort(t *testing.T) {
	for _, bad := range []string{"port:abc", "port:0", "port:70000", "port:80abc", "port:+80", "port:", "port:-1"} {
		if _, err := ParseQuery(bad); err == nil {
			t.Errorf("ParseQuery(%q) accepted", bad)
		}
	}
}

func TestCountryFromHostname(t *testing.T) {
	cases := map[string]string{
		"ns1.qtel.com.qa":       "QA",
		"proxy.emirates.ae":     "AE",
		"filter.wvnet.example":  "",
		"cache.comcast.example": "",
		"bare":                  "",
		"":                      "",
		"x.co":                  "", // .co excluded as pseudo-gTLD
		"a.b.c.de":              "DE",
		"host.q1":               "", // non-alpha
	}
	for in, want := range cases {
		if got := CountryFromHostname(in); got != want {
			t.Errorf("CountryFromHostname(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCountries(t *testing.T) {
	_, s := fixture(t)
	idx, _ := s.ScanNetwork(context.Background())
	got := idx.Countries()
	if len(got) != 2 || got[0] != "AE" || got[1] != "QA" {
		t.Fatalf("Countries = %v", got)
	}
}

// TestScanRespectsContext: a scan whose context is already cancelled
// probes nothing and reports the cancellation.
func TestScanRespectsContext(t *testing.T) {
	_, s := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	idx, err := s.ScanAddrs(ctx, []netip.Addr{netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2")})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ScanAddrs with a cancelled context: err = %v, want context.Canceled", err)
	}
	if idx == nil || idx.Len() != 0 {
		t.Fatalf("ScanAddrs with a cancelled context indexed %v, want an empty index", idx.All())
	}
}

// TestScanStopsWithinOneHost cancels a one-worker scan from the handler
// of host k: hosts before k are indexed, and no host after k yields a
// banner, so a cancelled scan stops within one host.
func TestScanStopsWithinOneHost(t *testing.T) {
	const hosts, k = 8, 3
	n := netsim.New(nil)
	t.Cleanup(n.Close)
	vantage, err := n.AddHost(netip.MustParseAddr("198.108.1.10"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var addrs []netip.Addr
	for i := 0; i < hosts; i++ {
		h, err := n.AddHost(netip.AddrFrom4([4]byte{192, 0, 2, byte(i + 1)}), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		banner := netsim.Response(fmt.Sprintf("HTTP/1.0 200 OK\r\nServer: host-%d\r\nContent-Length: 0\r\n\r\n", i))
		handler := netsim.Handler(banner)
		if i == k {
			handler = netsim.HandlerFunc(func(c net.Conn) {
				cancel()
				banner.ServeConn(c)
			})
		}
		for _, port := range []uint16{80, 8080} {
			if _, err := h.Serve(port, netsim.Public, handler); err != nil {
				t.Fatal(err)
			}
		}
		addrs = append(addrs, h.Addr())
	}
	s := &Scanner{Vantage: vantage, Config: engine.NewConfig(engine.WithWorkers(1))}
	idx, err := s.ScanAddrs(ctx, addrs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ScanAddrs cancelled mid-scan: err = %v, want context.Canceled", err)
	}
	seen := make(map[netip.Addr]int)
	for _, b := range idx.All() {
		seen[b.Addr]++
	}
	for i, a := range addrs {
		switch {
		case i < k && seen[a] != 2:
			t.Errorf("host %d, before the cancel, yielded %d banners, want 2", i, seen[a])
		case i > k && seen[a] != 0:
			t.Errorf("host %d, after the cancel at host %d, yielded %d banners", i, k, seen[a])
		}
	}
}

// TestProbeBoundedAtConnection scans a port that accepts and never
// answers: the probe bound, applied as the connection deadline, must end
// the probe well inside the test's own deadline and index nothing for
// it, while the answering service beside it is still indexed. The
// tarpit host also answers on 8080, which its item probes after the
// silent port 80: that probe takes a bound of its own, so the silent
// port cannot starve it and its banner is indexed too.
func TestProbeBoundedAtConnection(t *testing.T) {
	n, _ := fixture(t)
	vantage, _ := n.Host(netip.MustParseAddr("198.108.1.10"))
	tarpit, err := n.AddHost(netip.MustParseAddr("192.0.2.4"), "tarpit.example", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Read the request and never answer; return once the prober hangs up.
	if _, err := tarpit.Serve(80, netsim.Public, netsim.HandlerFunc(func(c net.Conn) {
		io.Copy(io.Discard, c) //nolint:errcheck // test server
		c.Close()
	})); err != nil {
		t.Fatal(err)
	}
	banner := netsim.Response("HTTP/1.0 200 OK\r\nServer: tarpit-admin\r\nContent-Length: 0\r\n\r\n")
	if _, err := tarpit.Serve(8080, netsim.Public, banner); err != nil {
		t.Fatal(err)
	}

	s := &Scanner{Vantage: vantage, Config: engine.NewConfig(engine.WithTimeout(50 * time.Millisecond))}
	type scan struct {
		idx *Index
		err error
	}
	done := make(chan scan, 1)
	go func() {
		idx, err := s.ScanAddrs(context.Background(), []netip.Addr{tarpit.Addr(), netip.MustParseAddr("192.0.2.1")})
		done <- scan{idx, err}
	}()
	select {
	case got := <-done:
		if got.err != nil {
			t.Fatalf("ScanAddrs: %v", got.err)
		}
		all := got.idx.All()
		if len(all) != 2 || all[0].Addr.String() != "192.0.2.1" ||
			all[1].Addr != tarpit.Addr() || all[1].Port != 8080 {
			t.Fatalf("indexed %v, want the 192.0.2.1 banner and the tarpit's 8080 banner", all)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("scan of a silent port did not finish within 2s under a 50ms probe bound")
	}
}

// TestProbeBoundCoversSlowDial: a probe's bound starts before its dial,
// so a dial slower than the bound yields no banner, while a bound longer
// than the dial still reads it.
func TestProbeBoundCoversSlowDial(t *testing.T) {
	n := netsim.New(nil)
	t.Cleanup(n.Close)
	vantage, err := n.AddHost(netip.MustParseAddr("198.108.1.10"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := n.AddHost(netip.MustParseAddr("192.0.2.1"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Serve(80, netsim.Public, netsim.Response("HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	n.SetDialLatency(100 * time.Millisecond)
	for _, c := range []struct {
		bound time.Duration
		want  int
	}{{50 * time.Millisecond, 0}, {2 * time.Second, 1}} {
		s := &Scanner{Vantage: vantage, Config: engine.NewConfig(engine.WithTimeout(c.bound))}
		idx, err := s.ScanAddrs(context.Background(), []netip.Addr{h.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		if idx.Len() != c.want {
			t.Errorf("bound %v over a 100ms dial indexed %d banners, want %d", c.bound, idx.Len(), c.want)
		}
	}
}

func TestScannerNoVantage(t *testing.T) {
	s := &Scanner{}
	if _, err := s.ScanAddrs(context.Background(), nil); err == nil {
		t.Fatal("scan without vantage succeeded")
	}
}

func TestBodyExcerptBounded(t *testing.T) {
	n := netsim.New(nil)
	t.Cleanup(n.Close)
	vantage, _ := n.AddHost(netip.MustParseAddr("198.108.1.10"), "", nil)
	big, _ := n.AddHost(netip.MustParseAddr("192.0.2.9"), "big.example", nil)
	huge := make([]byte, 100<<10)
	for i := range huge {
		huge[i] = 'x'
	}
	srv := &httpwire.Server{Handler: httpwire.HandlerFunc(func(*httpwire.Request) *httpwire.Response {
		return httpwire.NewResponse(200, nil, huge)
	})}
	if _, err := big.Serve(80, netsim.Public, srv); err != nil {
		t.Fatal(err)
	}

	s := &Scanner{Vantage: vantage}
	idx, err := s.ScanAddrs(context.Background(), []netip.Addr{big.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	all := idx.All()
	if len(all) != 1 || len(all[0].BodyExcerpt) != bodyExcerptLen {
		t.Fatalf("excerpt length = %d, want %d", len(all[0].BodyExcerpt), bodyExcerptLen)
	}
}

func TestTokenizeProperty(t *testing.T) {
	// Tokenize never returns empty tokens and never panics.
	f := func(s string) bool {
		for _, tok := range tokenize(s) {
			if tok == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchDeterministicOrder(t *testing.T) {
	idx := NewIndex()
	idx.Add(Banner{Addr: netip.MustParseAddr("10.0.0.2"), Port: 80, RawHead: "kw"})
	idx.Add(Banner{Addr: netip.MustParseAddr("10.0.0.1"), Port: 8080, RawHead: "kw"})
	idx.Add(Banner{Addr: netip.MustParseAddr("10.0.0.1"), Port: 80, RawHead: "kw"})
	hits := idx.SearchBytes(Query{Keywords: []string{"kw"}}.Compile(), nil)
	if len(hits) != 3 {
		t.Fatalf("hits = %d", len(hits))
	}
	if hits[0].Addr.String() != "10.0.0.1" || hits[0].Port != 80 ||
		hits[1].Port != 8080 || hits[2].Addr.String() != "10.0.0.2" {
		t.Fatalf("order = %v", hits)
	}
}
