package fingerprint

import (
	"context"
	"net/netip"
	"testing"

	"filtermap/internal/httpwire"
	"filtermap/internal/netsim"
)

func resp(status int, hdr *httpwire.Header, body string) *httpwire.Response {
	return httpwire.NewResponse(status, hdr, []byte(body))
}

func TestHeaderContains(t *testing.T) {
	r := resp(200, httpwire.NewHeader("Server", "Blue Coat ProxySG 6.5"), "")
	if !(HeaderContains{Name: "Server", Substr: "proxysg"}).Match(r) {
		t.Fatal("case-insensitive substring failed")
	}
	if (HeaderContains{Name: "Server", Substr: "netsweeper"}).Match(r) {
		t.Fatal("matched absent substring")
	}
	if (HeaderContains{Name: "Via", Substr: "proxysg"}).Match(r) {
		t.Fatal("matched absent header")
	}
}

func TestHeaderPresentExactCase(t *testing.T) {
	genuine := resp(200, httpwire.NewHeader("Via-Proxy", "mwg1"), "")
	if !(HeaderPresent{ExactName: "Via-Proxy"}).Match(genuine) {
		t.Fatal("exact case missed genuine header")
	}
	fake := resp(200, httpwire.NewHeader("VIA-PROXY", "x"), "")
	if (HeaderPresent{ExactName: "Via-Proxy"}).Match(fake) {
		t.Fatal("exact-case matcher accepted different casing")
	}
}

func TestTitleContains(t *testing.T) {
	r := resp(200, nil, "<html><head><title>McAfee Web Gateway - Notification</title></head></html>")
	if !(TitleContains{Substr: "mcafee web gateway"}).Match(r) {
		t.Fatal("title match failed")
	}
	r2 := resp(200, nil, "<html>no title but mentions McAfee Web Gateway</html>")
	if (TitleContains{Substr: "mcafee web gateway"}).Match(r2) {
		t.Fatal("matched body text as title")
	}
}

func TestExtractTitle(t *testing.T) {
	cases := []struct {
		body  string
		title string
		ok    bool
	}{
		{"<title>Hello</title>", "Hello", true},
		{"<TITLE>Mixed</TITLE>", "Mixed", true}, // tag matching is case-insensitive
		{"<title>  padded  </title>", "padded", true},
		{"<title>unterminated", "", false},
		{"no title at all", "", false},
	}
	for _, c := range cases {
		got, ok := ExtractTitleBytes([]byte(c.body))
		if ok != c.ok || string(got) != c.title {
			t.Errorf("ExtractTitleBytes(%q) = %q, %v; want %q, %v", c.body, got, ok, c.title, c.ok)
		}
	}
}

func TestBodyMatchers(t *testing.T) {
	r := resp(200, nil, "<p>Powered by Netsweeper</p>")
	if !(BodyContains{Substr: "powered by netsweeper"}).Match(r) {
		t.Fatal("BodyContains failed")
	}
	if (BodyContains{Substr: "powered by websense"}).Match(r) {
		t.Fatal("BodyContains matched absent substring")
	}
}

func TestLocationMatches(t *testing.T) {
	m := LocationMatches{Desc: "cfauth", Fn: func(loc string) bool { return loc == "http://www.cfauth.com/" }}
	redirect := resp(302, httpwire.NewHeader("Location", "http://www.cfauth.com/"), "")
	if !m.Match(redirect) {
		t.Fatal("redirect match failed")
	}
	ok200 := resp(200, httpwire.NewHeader("Location", "http://www.cfauth.com/"), "")
	if m.Match(ok200) {
		t.Fatal("matched Location on non-3xx")
	}
	noloc := resp(302, nil, "")
	if m.Match(noloc) {
		t.Fatal("matched empty Location")
	}
}

func TestSignatureAllMatchersRequired(t *testing.T) {
	sig := &Signature{
		Product: "X", Name: "combo",
		Matchers: []Matcher{
			HeaderContains{Name: "Server", Substr: "gateway"},
			BodyContains{Substr: "blocked"},
		},
	}
	gateway := httpwire.NewHeader("Server", "Gateway")
	if !sig.Matches(resp(403, gateway, "blocked")) {
		t.Fatal("full match failed")
	}
	if sig.Matches(resp(403, gateway, "fine")) || sig.Matches(resp(403, nil, "blocked")) {
		t.Fatal("partial match accepted")
	}
	empty := &Signature{Product: "X", Name: "empty"}
	if empty.Matches(resp(200, nil, "")) {
		t.Fatal("empty signature matched everything")
	}
}

func TestTable2SignaturesAgainstCanonicalResponses(t *testing.T) {
	cases := []struct {
		name    string
		product string
		r       *httpwire.Response
	}{
		{"bluecoat cfauth", ProductBlueCoat, resp(302,
			httpwire.NewHeader("Location", "http://www.cfauth.com/?cfru=aGk="), "")},
		{"bluecoat banner", ProductBlueCoat, resp(200,
			httpwire.NewHeader("Server", "Blue Coat ProxySG"), "")},
		{"smartfilter via-proxy", ProductSmartFilter, resp(403,
			httpwire.NewHeader("Via-Proxy", "mwg1"), "")},
		{"smartfilter title", ProductSmartFilter, resp(403, nil,
			"<title>McAfee Web Gateway - Notification</title>")},
		{"netsweeper console", ProductNetsweeper, resp(200, nil,
			"<title>Netsweeper WebAdmin Login</title>")},
		{"netsweeper deny page", ProductNetsweeper, resp(200, nil,
			"<p>Powered by Netsweeper</p>")},
		{"netsweeper redirect", ProductNetsweeper, resp(302,
			httpwire.NewHeader("Location", "http://f.example:8080/webadmin/deny/index.php?cat=24"), "")},
		{"websense redirect", ProductWebsense, resp(302,
			httpwire.NewHeader("Location", "http://f.example:15871/cgi-bin/blockpage.cgi?ws-session=12345"), "")},
		{"websense banner", ProductWebsense, resp(200,
			httpwire.NewHeader("Server", "Websense Content Gateway"), "")},
	}
	for _, c := range cases {
		matched := ""
		for _, sig := range Table2Signatures() {
			if sig.Matches(c.r) {
				matched = sig.Product
				break
			}
		}
		if matched != c.product {
			t.Errorf("%s: matched %q, want %q", c.name, matched, c.product)
		}
	}
}

func TestTable2SignaturesRejectDecoys(t *testing.T) {
	decoys := []*httpwire.Response{
		// A blog page merely mentioning products.
		resp(200, httpwire.NewHeader("Server", "nginx"),
			"<title>Review</title><p>We tried Netsweeper, McAfee Web Gateway, Blue Coat ProxySG and blockpage.cgi.</p>"),
		// A generic router admin with a WebAdmin title.
		resp(200, nil, "<title>WebAdmin Router Console</title>"),
		// A redirect to a non-cfauth host.
		resp(302, httpwire.NewHeader("Location", "http://example.com/login"), ""),
		// A redirect to port 15871 without ws-session.
		resp(302, httpwire.NewHeader("Location", "http://x.example:15871/cgi-bin/other.cgi"), ""),
	}
	for i, r := range decoys {
		for _, sig := range Table2Signatures() {
			if sig.Matches(r) {
				t.Errorf("decoy %d matched %s", i, sig.Describe())
			}
		}
	}
}

func TestEngineIdentify(t *testing.T) {
	n := netsim.New(nil)
	t.Cleanup(n.Close)
	vantage, _ := n.AddHost(netip.MustParseAddr("198.108.1.10"), "", nil)
	target, _ := n.AddHost(netip.MustParseAddr("192.0.2.1"), "mwg.example", nil)
	srv := &httpwire.Server{Handler: httpwire.HandlerFunc(func(*httpwire.Request) *httpwire.Response {
		return resp(200, httpwire.NewHeader("Via-Proxy", "mwg.example"),
			"<title>McAfee Web Gateway</title>")
	})}
	if _, err := target.Serve(80, netsim.Public, srv); err != nil {
		t.Fatal(err)
	}

	engine := &Engine{Vantage: vantage}
	products, err := engine.Products(context.Background(), target.Addr())
	if err != nil {
		t.Fatalf("Products: %v", err)
	}
	if len(products) != 1 || products[0] != ProductSmartFilter {
		t.Fatalf("products = %v, want [McAfee SmartFilter]", products)
	}

	matches, err := engine.Identify(context.Background(), target.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) < 2 { // via-proxy + title signatures both fire
		t.Fatalf("matches = %d, want >= 2", len(matches))
	}
	for _, m := range matches {
		if m.Port != 80 || m.Addr != target.Addr() {
			t.Fatalf("match location = %v:%d", m.Addr, m.Port)
		}
	}
}

func TestEngineIdentifySilentHost(t *testing.T) {
	n := netsim.New(nil)
	t.Cleanup(n.Close)
	vantage, _ := n.AddHost(netip.MustParseAddr("198.108.1.10"), "", nil)
	dark, _ := n.AddHost(netip.MustParseAddr("192.0.2.9"), "", nil)
	engine := &Engine{Vantage: vantage}
	matches, err := engine.Identify(context.Background(), dark.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("silent host produced matches: %v", matches)
	}
}

func TestEngineNoVantage(t *testing.T) {
	engine := &Engine{}
	if _, err := engine.Identify(context.Background(), netip.MustParseAddr("192.0.2.1")); err == nil {
		t.Fatal("engine without vantage succeeded")
	}
}

func TestShodanKeywordsCoverAllProducts(t *testing.T) {
	kws := ShodanKeywords()
	for _, p := range []string{ProductBlueCoat, ProductSmartFilter, ProductNetsweeper, ProductWebsense} {
		if len(kws[p]) == 0 {
			t.Errorf("no keywords for %s", p)
		}
	}
}

func TestTable2SignaturesBuiltOnce(t *testing.T) {
	a, b := Table2Signatures(), Table2Signatures()
	if len(a) < 8 {
		t.Fatalf("Table 2 has %d signatures", len(a))
	}
	if &a[0] != &b[0] {
		t.Fatal("Table2Signatures built the list twice")
	}
}

func TestMatcherDescriptions(t *testing.T) {
	matchers := []Matcher{
		HeaderContains{Name: "Server", Substr: "x"},
		HeaderPresent{ExactName: "Via-Proxy"},
		TitleContains{Substr: "x"},
		BodyContains{Substr: "x"},
		LocationMatches{Desc: "points somewhere", Fn: func(string) bool { return false }},
	}
	for _, m := range matchers {
		if m.Describe() == "" {
			t.Errorf("%T has empty description", m)
		}
	}
}
