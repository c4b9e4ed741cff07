package blockpage

import (
	"fmt"
	"strings"
	"testing"

	"filtermap/internal/httpwire"
	"filtermap/internal/match"
)

func htmlResp(status int, hdr *httpwire.Header, body string) *httpwire.Response {
	return httpwire.NewResponse(status, hdr, []byte(body))
}

func TestClassifyBlueCoatException(t *testing.T) {
	c := NewClassifier(nil)
	r := htmlResp(403, nil, `<h1>Access Denied</h1>
<p>Your request was denied because of its content categorization: &quot;Proxy Avoidance&quot;</p>`)
	m, ok := c.ClassifyResponse(r, 0)
	if !ok || m.Product != "Blue Coat" {
		t.Fatalf("classify = %+v, %v", m, ok)
	}
}

func TestClassifyMcAfeeNotification(t *testing.T) {
	c := NewClassifier(nil)
	r := htmlResp(403, nil, `<html><head><title>McAfee Web Gateway - Notification</title></head>
<body><h1>URL Blocked</h1><p>Category: Pornography</p></body></html>`)
	m, ok := c.ClassifyResponse(r, 0)
	if !ok || m.Product != "McAfee SmartFilter" {
		t.Fatalf("classify = %+v, %v", m, ok)
	}
	if m.Category != "Pornography" {
		t.Fatalf("category = %q, want Pornography", m.Category)
	}
}

func TestClassifyNetsweeperRedirect(t *testing.T) {
	c := NewClassifier(nil)
	r := htmlResp(302, httpwire.NewHeader(
		"Location", "http://ns1.yemen.net.ye:8080/webadmin/deny/index.php?dpid=2&cat=24&url=http%3A%2F%2Fx.info%2F"), "")
	m, ok := c.ClassifyResponse(r, 0)
	if !ok || m.Product != "Netsweeper" {
		t.Fatalf("classify = %+v, %v", m, ok)
	}
	if m.Category != "24" {
		t.Fatalf("category = %q, want 24 (from cat= param)", m.Category)
	}
}

func TestClassifyWebsenseRedirect(t *testing.T) {
	c := NewClassifier(nil)
	r := htmlResp(302, httpwire.NewHeader(
		"Location", "http://wsg1.example:15871/cgi-bin/blockpage.cgi?ws-session=123456&cat=adult-content"), "")
	m, ok := c.ClassifyResponse(r, 0)
	if !ok || m.Product != "Websense" {
		t.Fatalf("classify = %+v, %v", m, ok)
	}
}

func TestClassifyChainFindsIntermediateHop(t *testing.T) {
	c := NewClassifier(nil)
	chain := []*httpwire.Response{
		htmlResp(302, httpwire.NewHeader("Location", "http://f:8080/webadmin/deny/index.php?cat=23"), ""),
		htmlResp(200, nil, "<p>deny page body</p>"),
	}
	m, ok := c.ClassifyChain(chain)
	if !ok || m.Hop != 0 || m.Product != "Netsweeper" {
		t.Fatalf("chain classify = %+v, %v", m, ok)
	}
}

func TestClassifyRejectsOrdinaryPages(t *testing.T) {
	c := NewClassifier(nil)
	pages := []*httpwire.Response{
		htmlResp(200, nil, "<h1>Welcome</h1><p>weather and recipes</p>"),
		htmlResp(404, nil, "<p>not found</p>"),
		htmlResp(302, httpwire.NewHeader("Location", "https://example.com/login"), ""),
		htmlResp(403, nil, "<p>forbidden for boring reasons</p>"),
		// Mentions vendors in prose, not in block-page shape.
		htmlResp(200, nil, "<p>an article about Netsweeper deny pages and Websense</p>"),
	}
	for i, p := range pages {
		if m, ok := c.ClassifyResponse(p, 0); ok {
			t.Errorf("page %d misclassified as %s", i, m.Product)
		}
	}
}

func TestClassifyNilAndEmptyChain(t *testing.T) {
	c := NewClassifier(nil)
	if _, ok := c.ClassifyChain(nil); ok {
		t.Fatal("nil chain classified")
	}
	if _, ok := c.ClassifyChain([]*httpwire.Response{}); ok {
		t.Fatal("empty chain classified")
	}
}

func TestCategoryFromResponseStripsAnnotations(t *testing.T) {
	r := htmlResp(200, nil, `<p>Powered by Netsweeper</p><p>Category: Pornography (23)</p>`)
	c := NewClassifier(nil)
	m, ok := c.ClassifyResponse(r, 0)
	if !ok {
		t.Fatal("deny body not classified")
	}
	if m.Category != "Pornography" {
		t.Fatalf("category = %q, want Pornography", m.Category)
	}
}

func samplePage(url string) []byte {
	return []byte(fmt.Sprintf(`<!DOCTYPE html>
<html>
<head>
<title>Access Restricted</title>
</head>
<body>
<h1>This website is not available in your region</h1>
<p>The page you requested has been restricted by national policy.</p>
<p>URL: %s</p>
<p>Incident: %d</p>
</body>
</html>`, url, len(url)*7919))
}

func TestDeriveBodyRegexp(t *testing.T) {
	samples := [][]byte{
		samplePage("http://one.example/a"),
		samplePage("http://two.example/bb"),
		samplePage("http://three.example/ccc"),
	}
	pat, err := DeriveBodyRegexp("MysteryFilter", samples)
	if err != nil {
		t.Fatalf("DeriveBodyRegexp: %v", err)
	}
	re := derivedRegexp(t, pat)
	// The derived pattern matches a fresh page from the same product...
	if !pat.Detector.Match(samplePage("http://fresh.example/zzz")) {
		t.Fatalf("derived pattern missed a fresh sample: %s", re)
	}
	// ...and not an unrelated page.
	if pat.Detector.Match([]byte("<html><body><p>hello world, nothing restricted</p></body></html>")) {
		t.Fatalf("derived pattern overmatches: %s", re)
	}
	// The varying URL line must not have been baked in.
	if strings.Contains(re.String(), "one.example") {
		t.Fatalf("derived pattern contains a sample URL: %s", re)
	}
}

func TestDeriveBodyRegexpNeedsTwoSamples(t *testing.T) {
	if _, err := DeriveBodyRegexp("X", [][]byte{samplePage("a")}); err == nil {
		t.Fatal("single sample accepted")
	}
}

func TestDeriveBodyRegexpNoCommonLines(t *testing.T) {
	_, err := DeriveBodyRegexp("X", [][]byte{
		[]byte("<p>alpha beta gamma</p>"),
		[]byte("<p>delta epsilon zeta</p>"),
	})
	if err == nil {
		t.Fatal("disjoint samples produced a pattern")
	}
}

func TestDerivedPatternPluggableIntoClassifier(t *testing.T) {
	samples := [][]byte{samplePage("http://a.example/"), samplePage("http://b.example/")}
	pat, err := DeriveBodyRegexp("MysteryFilter", samples)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClassifier(nil)
	c.Add(pat)
	m, ok := c.ClassifyResponse(htmlResp(200, nil, string(samplePage("http://c.example/"))), 0)
	if !ok || m.Product != "MysteryFilter" {
		t.Fatalf("derived pattern classify = %+v, %v", m, ok)
	}
}

// TestAddKeepsCorporaApart builds two classifiers from one slice with
// spare capacity and adds a different pattern to each: neither Add may
// write into the other classifier's corpus.
func TestAddKeepsCorporaApart(t *testing.T) {
	shared := make([]Pattern, 0, 1)
	a := NewClassifier(shared)
	a.Add(Pattern{Product: "A", Name: "marker-a", Where: InBody, Detector: match.NewLiteral("marker-a")})
	b := NewClassifier(shared)
	b.Add(Pattern{Product: "B", Name: "marker-b", Where: InBody, Detector: match.NewLiteral("marker-b")})
	for _, tc := range []struct {
		name    string
		c       *Classifier
		body    string
		product string
	}{
		{"a", a, "marker-a", "A"},
		{"b", b, "marker-b", "B"},
	} {
		m, ok := tc.c.ClassifyResponse(htmlResp(200, nil, tc.body), 0)
		if !ok || m.Product != tc.product {
			t.Errorf("classifier %s on %q = %+v, %v; want product %s", tc.name, tc.body, m, ok, tc.product)
		}
	}
	if m, ok := a.ClassifyResponse(htmlResp(200, nil, "marker-b"), 0); ok {
		t.Errorf("classifier a matched the pattern added to b: %+v", m)
	}
}

func TestWhereString(t *testing.T) {
	if InBody.String() != "body" || InLocation.String() != "location" {
		t.Fatal("Where strings wrong")
	}
	if Where(9).String() != "Where(9)" {
		t.Fatal("unknown Where string wrong")
	}
}

func TestPatternsAccessor(t *testing.T) {
	c := NewClassifier(nil)
	n := len(c.Patterns())
	if n == 0 {
		t.Fatal("no default patterns")
	}
	// Mutating the returned slice must not affect the classifier.
	ps := c.Patterns()
	ps[0] = Pattern{}
	if len(c.Patterns()) != n || c.Patterns()[0].Product == "" {
		t.Fatal("Patterns() exposed internal storage")
	}
}

func TestIsMarkupOnly(t *testing.T) {
	cases := map[string]bool{
		"<hr>":                true,
		"<div id=\"x\">":      true,
		"<p>text</p>":         false,
		"plain words":         false,
		"   ":                 true,
		"<a href=\"x\">y</a>": false,
	}
	for in, want := range cases {
		if got := isMarkupOnly(in); got != want {
			t.Errorf("isMarkupOnly(%q) = %v, want %v", in, got, want)
		}
	}
}
