package scanner

import (
	"context"
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
		l, err := h.Listen(port)
		if err != nil {
			t.Fatal(err)
		}
		srv := &httpwire.Server{Handler: httpwire.HandlerFunc(func(*httpwire.Request) *httpwire.Response {
			return resp.Clone()
		})}
		go srv.Serve(l) //nolint:errcheck // ends with listener
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

	return n, New(vantage, engine.WithTimeout(2*time.Second))
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
}

func TestParseQueryBadPort(t *testing.T) {
	for _, bad := range []string{"port:abc", "port:0", "port:70000"} {
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

func TestScanRespectsContext(t *testing.T) {
	_, s := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.ScanAddrs(ctx, []netip.Addr{netip.MustParseAddr("192.0.2.1")})
	// Either a context error or an empty index is acceptable; it must not
	// hang.
	_ = err
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
	l, _ := big.Listen(80)
	huge := make([]byte, 100<<10)
	for i := range huge {
		huge[i] = 'x'
	}
	srv := &httpwire.Server{Handler: httpwire.HandlerFunc(func(*httpwire.Request) *httpwire.Response {
		return httpwire.NewResponse(200, nil, huge)
	})}
	go srv.Serve(l) //nolint:errcheck // ends with listener

	s := &Scanner{Vantage: vantage, BodyExcerptLen: 512}
	idx, err := s.ScanAddrs(context.Background(), []netip.Addr{big.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	all := idx.All()
	if len(all) != 1 || len(all[0].BodyExcerpt) != 512 {
		t.Fatalf("excerpt length = %d, want 512", len(all[0].BodyExcerpt))
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

func TestScanPrefix(t *testing.T) {
	_, s := fixture(t)
	// The fixture services live in 192.0.2.0/24; a census-style prefix
	// sweep finds them without knowing which addresses are allocated.
	idx, err := s.ScanPrefix(context.Background(), netip.MustParsePrefix("192.0.2.0/28"), 0)
	if err != nil {
		t.Fatalf("ScanPrefix: %v", err)
	}
	if idx.Len() != 2 {
		t.Fatalf("prefix sweep found %d banners, want 2", idx.Len())
	}
	// maxAddrs bounds the sweep below the first allocated address.
	idx, err = s.ScanPrefix(context.Background(), netip.MustParsePrefix("192.0.2.0/28"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 0 {
		t.Fatalf("bounded sweep found %d banners, want 0", idx.Len())
	}
}
