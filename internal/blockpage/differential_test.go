package blockpage

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"

	"filtermap/internal/corpustest"
	"filtermap/internal/httpwire"
	"filtermap/internal/match"
)

// seedRegexps is the default corpus as §5's manual analysis wrote it,
// frozen and keyed by pattern name. DefaultPatterns carries the literal
// detectors these reduce to; the reference classifier replays the
// regexps themselves.
var seedRegexps = map[string]*regexp.Regexp{
	"exception-page":     regexp.MustCompile(`(?i)your request was denied because of its content categorization`),
	"mwg-notification":   regexp.MustCompile(`(?is)<title>McAfee Web Gateway - Notification</title>.*URL Blocked`),
	"deny-redirect":      regexp.MustCompile(`(?i)/webadmin/deny/`),
	"deny-page":          regexp.MustCompile(`(?i)this page has been denied.*powered by netsweeper|powered by netsweeper`),
	"blockpage-redirect": regexp.MustCompile(`(?i):15871/cgi-bin/blockpage\.cgi\?.*ws-session=`),
	"blockpage-body":     regexp.MustCompile(`(?i)content blocked by your organization's policy`),
}

// categoryLine is the pattern categoryFromBytes implements byte-wise.
var categoryLine = regexp.MustCompile(`(?i)<p>category:\s*([^<]+)</p>`)

// referenceClassifyResponse is the seed implementation, frozen: a
// corpus-order loop running each pattern's seed regexp, with the
// regexp-based category extraction. The staged classifier must agree
// with it everywhere the differential corpus reaches.
func referenceClassifyResponse(c *Classifier, resp *httpwire.Response, hop int) (Match, bool) {
	for _, p := range c.patterns {
		re := seedRegexps[p.Name]
		switch p.Where {
		case InBody:
			if re.Match(resp.Body) {
				return Match{Product: p.Product, Pattern: p.Name, Category: referenceCategoryFromResponse(resp), Hop: hop}, true
			}
		case InLocation:
			if resp.StatusCode >= 300 && resp.StatusCode < 400 {
				if loc := resp.Header.Get("Location"); loc != "" && re.MatchString(loc) {
					return Match{Product: p.Product, Pattern: p.Name, Category: categoryFromLocation(loc), Hop: hop}, true
				}
			}
		}
	}
	return Match{}, false
}

// derivedRegexp rebuilds the regexp DeriveBodyRegexp compiles from a
// derived pattern's literals: the quoted lines joined by (?is).*. A
// regexp fallback detector carries it already.
func derivedRegexp(t testing.TB, p Pattern) *regexp.Regexp {
	t.Helper()
	switch d := p.Detector.(type) {
	case *match.Ordered:
		parts := make([]string, len(d.Literals()))
		for i, l := range d.Literals() {
			parts[i] = regexp.QuoteMeta(l)
		}
		return regexp.MustCompile(`(?is)` + strings.Join(parts, ".*"))
	case *match.Regexp:
		return d.Pattern()
	}
	t.Fatalf("derived pattern has detector %T", p.Detector)
	return nil
}

func referenceCategoryFromResponse(resp *httpwire.Response) string {
	m := categoryLine.FindSubmatch(resp.Body)
	if m == nil {
		return ""
	}
	cat := strings.TrimSpace(string(m[1]))
	if i := strings.IndexAny(cat, "(—"); i > 0 {
		cat = strings.TrimSpace(cat[:i])
	}
	return cat
}

// differentialCases assembles the inputs both implementations are run
// over: the committed fuzz corpus plus a constructed battery aimed at the
// category extractor's and the automaton's edge cases.
func differentialCases(t *testing.T) []*httpwire.Response {
	t.Helper()
	mk := func(status int, location string, body []byte) *httpwire.Response {
		hdr := httpwire.NewHeader()
		if location != "" {
			hdr.Set("Location", location)
		}
		return &httpwire.Response{StatusCode: status, Header: hdr, Body: body}
	}
	var cases []*httpwire.Response
	entries, err := corpustest.Load("testdata/fuzz/FuzzClassifyResponse")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		cases = append(cases, mk(e.Int(0), e.String(1), e.Bytes(2)))
	}
	bodies := [][]byte{
		[]byte("<html><title>MCAFEE WEB GATEWAY - NOTIFICATION</title>url blocked</html>"),
		[]byte("URL Blocked ... <title>McAfee Web Gateway - Notification</title>"), // order violated: no match
		[]byte("<title>McAfee Web Gateway - Notification</title>\nnext line\nURL Blocked"),
		[]byte("This page has been denied by policy. Powered by Netsweeper."),
		[]byte("powered by netsweeper"),
		[]byte("Content blocked by your organization's policy<p>Category:Phishing(7)</p>"),
		[]byte("<p>category:   </p>"),  // all-whitespace capture
		[]byte("<p>Category:</p>"),     // empty region: regexp cannot match here
		[]byte("<p>Category: (x)</p>"), // annotation at offset 0 after trim: no strip
		[]byte("<p>Category: x()</p>"), // annotation mid-string
		[]byte("<p>Category: A — session 9</p>powered by netsweeper"),
		[]byte("<p>Category: \xff\xfe invalid utf8 (1)</p>powered by netsweeper"),
		[]byte("<p>Category: first<p>Category: second</p>powered by netsweeper"), // first occurrence unterminated
		[]byte("<p>Category: no close tag powered by netsweeper"),
		[]byte("your request was denied because of its content categorization"),
		[]byte("nothing to see here at all"),
	}
	for _, b := range bodies {
		cases = append(cases, mk(200, "", b), mk(403, "", b))
	}
	locs := []string{
		"http://h:8080/webadmin/deny/index.php?cat=24",
		"http://h:15871/cgi-bin/blockpage.cgi?ws-session=1&cat=ANON",
		"http://h:15871/cgi-bin/blockpage.cgi?\nws-session=1", // newline: line-gap must reject like (?i) without (?s)
		"HTTP://H:15871/CGI-BIN/BLOCKPAGE.CGI?WS-SESSION=2",
		"/webadmin/DENY/x",
		"http://ordinary.example/landing",
		"::bad url::%zz/webadmin/deny/?cat=9",
	}
	for _, l := range locs {
		cases = append(cases, mk(302, l, nil), mk(200, l, nil), mk(399, l, nil), mk(302, l, []byte("powered by netsweeper")))
	}
	return cases
}

// TestDifferentialClassify replays the corpus through the staged
// classifier and the frozen reference, serially and from 8 goroutines
// sharing one classifier (the automaton and its scratch handling must be
// concurrency-safe; run under -race via `make race`).
func TestDifferentialClassify(t *testing.T) {
	cases := differentialCases(t)
	c := NewClassifier(nil)
	for _, p := range c.patterns {
		if seedRegexps[p.Name] == nil {
			t.Fatalf("default pattern %q has no seed regexp to replay", p.Name)
		}
	}
	check := func(t *testing.T, resp *httpwire.Response) {
		got, gotOK := c.ClassifyResponse(resp, 3)
		want, wantOK := referenceClassifyResponse(c, resp, 3)
		if gotOK != wantOK || got != want {
			t.Errorf("status=%d loc=%q body=%q:\n  new: %+v %v\n  ref: %+v %v",
				resp.StatusCode, resp.Header.Get("Location"), resp.Body, got, gotOK, want, wantOK)
		}
	}
	t.Run("serial", func(t *testing.T) {
		for _, resp := range cases {
			check(t, resp)
		}
	})
	t.Run("workers-8", func(t *testing.T) {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, resp := range cases {
					check(t, resp)
				}
			}()
		}
		wg.Wait()
	})
}

// TestDifferentialClassifyBytes pins the byte entry point to the
// *httpwire.Response path on the same corpus: same winner, same category,
// and a wired raw header block must yield what the parsed header does.
func TestDifferentialClassifyBytes(t *testing.T) {
	c := NewClassifier(nil)
	for _, resp := range differentialCases(t) {
		loc := resp.Header.Get("Location")
		var rawHead []byte
		if loc != "" && !strings.ContainsAny(loc, "\r\n") {
			rawHead = []byte(fmt.Sprintf("HTTP/1.1 %d X\r\nServer: x\r\nLocation: %s\r\n\r\n", resp.StatusCode, loc))
		}
		if loc != "" && rawHead == nil {
			continue // not representable as a wire header line
		}
		bm, bmOK := c.ClassifyBytes(resp.StatusCode, rawHead, resp.Body, 3)
		want, wantOK := c.ClassifyResponse(resp, 3)
		if bmOK != wantOK {
			t.Fatalf("ClassifyBytes ok=%v, ClassifyResponse ok=%v (loc=%q body=%q)", bmOK, wantOK, loc, resp.Body)
		}
		if !bmOK {
			continue
		}
		got := Match{Product: bm.Product, Pattern: bm.Pattern, Category: string(bm.Category), Hop: bm.Hop}
		if got != want {
			t.Fatalf("ClassifyBytes %+v != ClassifyResponse %+v", got, want)
		}
		if bm.Hit.End < bm.Hit.Start || bm.Hit.Start < 0 {
			t.Fatalf("bad hit span %+v", bm.Hit)
		}
	}
}

// TestDifferentialDerived checks that patterns DeriveBodyRegexp emits
// classify identically whether the ordered-literal detector or the
// regexp it stands for runs.
func TestDifferentialDerived(t *testing.T) {
	samples := [][]byte{
		[]byte("<html>\n<h1>Access denied by national policy</h1>\n<p>The page you requested is restricted.</p>\n<p>URL: http://a.example/</p>\n</html>"),
		[]byte("<html>\n<h1>Access denied by national policy</h1>\n<p>The page you requested is restricted.</p>\n<p>URL: http://b.example/</p>\n</html>"),
	}
	p, err := DeriveBodyRegexp("Derived", samples)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Detector.(*match.Ordered); !ok {
		t.Fatalf("derived pattern on ASCII samples has detector %T, want *match.Ordered", p.Detector)
	}
	withDet := NewClassifier([]Pattern{p})
	reference := p
	reference.Detector = match.NewRegexp(derivedRegexp(t, p))
	withRegex := NewClassifier([]Pattern{reference})
	probes := append([][]byte{}, samples...)
	probes = append(probes,
		[]byte("<h1>ACCESS DENIED BY NATIONAL POLICY</h1> ... <p>The page you requested is restricted.</p>"),
		[]byte("<p>The page you requested is restricted.</p> <h1>Access denied by national policy</h1>"), // wrong order
		[]byte("unrelated page"),
	)
	for _, body := range probes {
		resp := httpwire.NewResponse(200, nil, body)
		m1, ok1 := withDet.ClassifyResponse(resp, 0)
		m2, ok2 := withRegex.ClassifyResponse(resp, 0)
		if ok1 != ok2 || m1 != m2 {
			t.Errorf("body %q: detector %+v %v, regexp %+v %v", body, m1, ok1, m2, ok2)
		}
	}
}

// TestZeroAllocClassifyBytes pins the zero-allocation contract of the
// byte entry point: 0 allocs/op on the body-hit path (including category
// extraction) and the miss path. CI runs this, so a regression that adds
// an allocation to the hot loop fails the build.
func TestZeroAllocClassifyBytes(t *testing.T) {
	c := NewClassifier(nil)
	hit := []byte(`<html><head><title>McAfee Web Gateway - Notification</title></head><body>
<h1>URL Blocked</h1><p>Category: Pornography (23)</p></body></html>`)
	miss := []byte(`<html><head><title>Weather</title></head><body>
<p>Sunny with a chance of recipes. Nothing filtered here at all.</p></body></html>`)
	redirectHead := []byte("HTTP/1.1 302 Found\r\nLocation: http://www.example.com/landing\r\n\r\n")

	if m, ok := c.ClassifyBytes(403, nil, hit, 0); !ok || string(m.Category) != "Pornography" {
		t.Fatalf("hit sanity: %+v %v", m, ok)
	}
	cases := []struct {
		name string
		f    func()
	}{
		{"body-hit", func() { c.ClassifyBytes(403, nil, hit, 0) }},
		{"body-miss", func() { c.ClassifyBytes(200, nil, miss, 0) }},
		{"redirect-miss", func() { c.ClassifyBytes(302, redirectHead, nil, 0) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, tc.f); n != 0 {
			t.Errorf("ClassifyBytes %s allocates %v/op, want 0", tc.name, n)
		}
	}
}

// TestCategoryFromBytesVsRegexp drives the byte-wise category extractor
// against the frozen categoryLine regexp over adversarial bodies.
func TestCategoryFromBytesVsRegexp(t *testing.T) {
	bodies := []string{
		"", "<p>Category: A</p>", "<p>category:B</p>", "<P>CATEGORY: C </P>",
		"<p>Category:   </p>", "<p>Category:</p>", "<p>Category: <i>x</i></p>",
		"<p>Category: A (1)</p>", "<p>Category: (1)</p>", "<p>Category: A — x</p>",
		"<p>Category: — x</p>", "<p>Category: A(", "<p>Category: A</p",
		"x<p>Category: 1</p>y<p>Category: 2</p>", "<p>Category: \xff(\xfe)</p>",
		"<p>Category: \u00a0A\u00a0</p>", "<p>Category:\n\tA\n</p>",
		"<p>Category: first<b></b></p><p>Category: ok</p>",
	}
	for _, b := range bodies {
		resp := &httpwire.Response{StatusCode: 200, Header: httpwire.NewHeader(), Body: []byte(b)}
		got := string(categoryFromBytes([]byte(b)))
		want := referenceCategoryFromResponse(resp)
		if got != want {
			t.Errorf("body %q: categoryFromBytes=%q, regexp=%q", b, got, want)
		}
	}
}
