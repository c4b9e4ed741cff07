package characterize

import (
	"context"
	"net"
	"net/netip"
	"testing"

	"filtermap/internal/httpwire"
	"filtermap/internal/measurement"
	"filtermap/internal/netsim"
	"filtermap/internal/urllist"
)

// newHarness builds an ISP whose interceptor blocks two specific research
// domains with a McAfee-style page, plus origins for a small list.
func newHarness(t *testing.T, blocked map[string]bool) (*measurement.Client, urllist.List) {
	t.Helper()
	n := netsim.New(nil)
	t.Cleanup(n.Close)

	isp, err := n.AddISP("Etisalat")
	if err != nil {
		t.Fatal(err)
	}
	field, err := n.AddHost(netip.MustParseAddr("94.56.20.20"), "", isp)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := n.AddHost(netip.MustParseAddr("128.100.50.10"), "", nil)
	if err != nil {
		t.Fatal(err)
	}

	list := urllist.List{Name: "test", Entries: []urllist.Entry{
		{URL: "http://news-site.org/", Domain: "news-site.org", Category: urllist.CatMediaFreedom},
		{URL: "http://lgbt-site.org/", Domain: "lgbt-site.org", Category: urllist.CatLGBT},
		{URL: "http://health-site.org/", Domain: "health-site.org", Category: "public-health"},
	}}
	ip := netip.MustParseAddr("192.0.2.1")
	for _, e := range list.Entries {
		h, err := n.AddHost(ip, e.Domain, nil)
		if err != nil {
			t.Fatal(err)
		}
		ip = ip.Next()
		srv := &httpwire.Server{Handler: httpwire.HandlerFunc(func(*httpwire.Request) *httpwire.Response {
			return httpwire.NewResponse(200, nil, []byte("origin content"))
		})}
		if _, err := h.Serve(80, netsim.Public, srv); err != nil {
			t.Fatal(err)
		}
	}

	isp.SetInterceptor(netsim.InterceptorFunc(func(info netsim.DialInfo) netsim.Handler {
		if !blocked[info.Hostname] {
			return nil
		}
		return netsim.HandlerFunc(func(conn net.Conn) {
			defer conn.Close()
			body := []byte("<title>McAfee Web Gateway - Notification</title><h1>URL Blocked</h1>")
			resp := httpwire.NewResponse(403, httpwire.NewHeader(
				"Content-Type", "text/html", "Via-Proxy", "mwg1", "Connection", "close"), body)
			resp.WriteTo(conn) //nolint:errcheck // test
		})
	}))

	client := &measurement.Client{
		Field: &measurement.Vantage{Name: "field", Host: field},
		Lab:   &measurement.Vantage{Name: "lab", Host: lab},
	}
	return client, list
}

func TestCharacterizeAttributesBlockedCategories(t *testing.T) {
	client, list := newHarness(t, map[string]bool{"news-site.org": true, "lgbt-site.org": true})
	rep := Characterize(context.Background(), Run{
		Country: "AE", ISP: "Etisalat", ASN: 5384,
		Global: list, Local: urllist.List{Name: "local-ae"},
		Client: client,
	})
	if len(rep.Blocked) != 2 {
		t.Fatalf("blocked = %d, want 2", len(rep.Blocked))
	}
	products := rep.Products()
	if len(products) != 1 || products[0] != "McAfee SmartFilter" {
		t.Fatalf("products = %v", products)
	}
	if !rep.Blocks("McAfee SmartFilter", urllist.CatMediaFreedom) {
		t.Error("media freedom not recorded")
	}
	if !rep.Blocks("McAfee SmartFilter", urllist.CatLGBT) {
		t.Error("lgbt not recorded")
	}
	if rep.Blocks("McAfee SmartFilter", "public-health") {
		t.Error("unblocked category recorded")
	}
	if cats := rep.blockedCats["McAfee SmartFilter"]; len(cats) != 2 {
		t.Fatalf("blocked categories = %v", cats)
	}
}

func TestCharacterizeNothingBlocked(t *testing.T) {
	client, list := newHarness(t, nil)
	rep := Characterize(context.Background(), Run{
		Country: "AE", ISP: "Etisalat", ASN: 5384,
		Global: list, Client: client,
	})
	if len(rep.Blocked) != 0 || len(rep.Products()) != 0 {
		t.Fatalf("unexpected blocks: %+v", rep.Blocked)
	}
	if len(rep.Results) != len(list.Entries) {
		t.Fatalf("results = %d", len(rep.Results))
	}
}

func TestCharacterizeRunsBothLists(t *testing.T) {
	client, list := newHarness(t, map[string]bool{"lgbt-site.org": true})
	global := urllist.List{Name: "global", Entries: list.Entries[:1]}
	local := urllist.List{Name: "local", Entries: list.Entries[1:]}
	rep := Characterize(context.Background(), Run{
		Country: "AE", ISP: "Etisalat", ASN: 5384,
		Global: global, Local: local, Client: client,
	})
	if len(rep.Results) != 3 {
		t.Fatalf("results = %d, want 3 (both lists)", len(rep.Results))
	}
	if len(rep.Blocked) != 1 || rep.Blocked[0].FromList != "local" {
		t.Fatalf("blocked = %+v", rep.Blocked)
	}
}

func TestTable4Columns(t *testing.T) {
	cols := Table4Columns()
	if len(cols) != 6 {
		t.Fatalf("Table 4 has %d columns, want 6", len(cols))
	}
	for _, c := range cols {
		if _, ok := urllist.CategoryByCode(c); !ok {
			t.Errorf("column %q not in the research scheme", c)
		}
	}
}

func TestMatrix(t *testing.T) {
	client, list := newHarness(t, map[string]bool{"news-site.org": true})
	rep := Characterize(context.Background(), Run{
		Country: "AE", ISP: "Etisalat", ASN: 5384, Global: list, Client: client,
	})
	rows := Matrix([]*Report{rep})
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	row := rows[0]
	if row.Product != "McAfee SmartFilter" || row.ASN != 5384 || row.Country != "AE" {
		t.Fatalf("row identity = %+v", row)
	}
	if !row.Blocked[urllist.CatMediaFreedom] || row.Blocked[urllist.CatLGBT] {
		t.Fatalf("row cells = %v", row.Blocked)
	}
	// Every Table 4 column is present in the cell map.
	for _, c := range Table4Columns() {
		if _, ok := row.Blocked[c]; !ok {
			t.Errorf("column %q missing from row", c)
		}
	}
}

func TestMatrixEmptyReports(t *testing.T) {
	if rows := Matrix(nil); len(rows) != 0 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestMatrixDeterministicOrder(t *testing.T) {
	client, list := newHarness(t, map[string]bool{"news-site.org": true, "lgbt-site.org": true})
	rep := Characterize(context.Background(), Run{
		Country: "AE", ISP: "Etisalat", ASN: 5384, Global: list, Client: client,
	})
	a := Matrix([]*Report{rep, rep})
	b := Matrix([]*Report{rep, rep})
	if len(a) != len(b) {
		t.Fatal("nondeterministic row count")
	}
	for i := range a {
		if a[i].Product != b[i].Product || a[i].ASN != b[i].ASN {
			t.Fatal("nondeterministic row order")
		}
	}
}
