package blockpage

import (
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"filtermap/internal/corpustest"
	"filtermap/internal/httpwire"
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

// regexpDetector is a body pattern no literal detector expresses.
type regexpDetector struct{ re *regexp.Regexp }

func (d regexpDetector) Match(text []byte) bool { return d.re.Match(text) }

// referenceClassifyResponse is the seed implementation, frozen: a
// corpus-order loop running each pattern's seed regexp, with the
// regexp-based category extraction. A pattern with no seed regexp must
// carry a regexpDetector, whose regexp it runs instead. The classifier
// must agree with it everywhere the differential corpus reaches.
func referenceClassifyResponse(c *Classifier, resp *httpwire.Response, hop int) (Match, bool) {
	for _, p := range c.patterns {
		re := seedRegexps[p.Name]
		if re == nil {
			re = p.Detector.(regexpDetector).re // a non-seed pattern replays its own regexp
		}
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
// category extractor's and the detectors' edge cases.
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

// TestDifferentialClassify replays the corpus through the classifier
// and the frozen reference, serially and from 8 goroutines sharing one
// classifier (classification must be concurrency-safe; run under -race
// via `make race`).
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

// TestDifferentialCorpusOrder replays the differential cases through
// corpora that interleave location, literal and regexp detectors in
// other orders than the default one, against the frozen reference: the
// first pattern in corpus order wins, whatever its detector kind.
func TestDifferentialCorpusOrder(t *testing.T) {
	reversed := DefaultPatterns()
	slices.Reverse(reversed)
	categoryThenDeny := Pattern{
		Product:  "Regexp Product",
		Name:     "category-then-deny",
		Where:    InBody,
		Detector: regexpDetector{regexp.MustCompile(`(?is)<p>category:.*powered by netsweeper`)},
	}
	corpora := []struct {
		name     string
		patterns []Pattern
	}{
		{"reversed", reversed},
		{"regexp-first", append([]Pattern{categoryThenDeny}, DefaultPatterns()...)},
	}
	cases := differentialCases(t)
	def := NewClassifier(nil)
	for _, tc := range corpora {
		t.Run(tc.name, func(t *testing.T) {
			c := NewClassifier(tc.patterns)
			reordered := 0
			for _, resp := range cases {
				got, gotOK := c.ClassifyResponse(resp, 3)
				want, wantOK := referenceClassifyResponse(c, resp, 3)
				if gotOK != wantOK || got != want {
					t.Errorf("status=%d loc=%q body=%q:\n  new: %+v %v\n  ref: %+v %v",
						resp.StatusCode, resp.Header.Get("Location"), resp.Body, got, gotOK, want, wantOK)
				}
				if m, _ := def.ClassifyResponse(resp, 3); gotOK && got.Pattern != m.Pattern {
					reordered++
				}
			}
			// The corpus order must decide some case, or this test pins
			// nothing the default corpus does not.
			if reordered == 0 {
				t.Fatal("no case classifies differently from the default corpus")
			}
		})
	}
}

// TestAllocsClassifyResponse pins the classifier's allocation budget:
// 0 allocs/op on a body miss and a redirect miss, and at most 1 on a
// body hit, the Category string. CI runs this via `make alloc-gate`, so
// an allocation slipped into the loop fails the build.
func TestAllocsClassifyResponse(t *testing.T) {
	c := NewClassifier(nil)
	hit := httpwire.NewResponse(403, nil, []byte(`<html><head><title>McAfee Web Gateway - Notification</title></head><body>
<h1>URL Blocked</h1><p>Category: Pornography (23)</p></body></html>`))
	miss := httpwire.NewResponse(200, nil, []byte(`<html><head><title>Weather</title></head><body>
<p>Sunny with a chance of recipes. Nothing filtered here at all.</p></body></html>`))
	redirect := httpwire.NewResponse(302, httpwire.NewHeader("Location", "http://www.example.com/landing"), nil)

	if m, ok := c.ClassifyResponse(hit, 0); !ok || m.Category != "Pornography" {
		t.Fatalf("hit sanity: %+v %v", m, ok)
	}
	cases := []struct {
		name string
		resp *httpwire.Response
		max  float64
	}{
		{"body-hit", hit, 1},
		{"body-miss", miss, 0},
		{"redirect-miss", redirect, 0},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, func() { c.ClassifyResponse(tc.resp, 0) }); n > tc.max {
			t.Errorf("ClassifyResponse %s allocates %v/op, want at most %v", tc.name, n, tc.max)
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
