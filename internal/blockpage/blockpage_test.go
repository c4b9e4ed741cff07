package blockpage

import (
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

// TestAddKeepsCorporaApart builds a classifier from a slice and then
// overwrites the slice: NewClassifier copies its input, so the
// classifier keeps the pattern it was built with and never sees the
// one written after.
func TestAddKeepsCorporaApart(t *testing.T) {
	patterns := []Pattern{{Product: "A", Name: "marker-a", Where: InBody, Detector: match.NewLiteral("marker-a")}}
	c := NewClassifier(patterns)
	patterns[0] = Pattern{Product: "B", Name: "marker-b", Where: InBody, Detector: match.NewLiteral("marker-b")}
	if m, ok := c.ClassifyResponse(htmlResp(200, nil, "marker-a"), 0); !ok || m.Product != "A" {
		t.Errorf("classifier on marker-a = %+v, %v; want product A", m, ok)
	}
	if m, ok := c.ClassifyResponse(htmlResp(200, nil, "marker-b"), 0); ok {
		t.Errorf("classifier matched a pattern written into its input after construction: %+v", m)
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
