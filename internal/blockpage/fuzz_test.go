package blockpage

import (
	"testing"

	"filtermap/internal/httpwire"
)

// FuzzClassifyResponse feeds arbitrary status/header/body combinations
// through the block-page corpus. Classification runs on every byte a
// censor returns, so it must never panic and must stay consistent: a
// match must name a product from the corpus.
func FuzzClassifyResponse(f *testing.F) {
	f.Add(200, "", []byte("<html><head><title>Web Page Blocked</title></head><p>Category: pornography (23)</p></html>"))
	f.Add(302, "http://deny.example/webadmin/deny.php?cat=23", []byte(""))
	f.Add(302, "http://blockpage.example/?cat=ANON&url=x", []byte(""))
	f.Add(403, "", []byte("Access to this site has been blocked by your administrator"))
	f.Add(200, "", []byte("<p>Category:"))
	f.Add(200, "::bad url::%zz", []byte("Category: <"))
	f.Fuzz(func(t *testing.T, status int, location string, body []byte) {
		products := make(map[string]bool)
		c := NewClassifier(DefaultPatterns())
		for _, p := range c.Patterns() {
			products[p.Product] = true
		}
		hdr := httpwire.NewHeader()
		if location != "" {
			hdr.Set("Location", location)
		}
		resp := &httpwire.Response{StatusCode: status, Header: hdr, Body: body}
		m, ok := c.ClassifyResponse(resp, 0)
		if !ok {
			return
		}
		if !products[m.Product] {
			t.Fatalf("match names product %q absent from the corpus", m.Product)
		}
		if m.Pattern == "" {
			t.Fatal("match without a pattern name")
		}
	})
}

// FuzzDeriveBodyRegexp fuzzes the paper's regex-derivation step with two
// block-page samples. A derived pattern's detector, and the regexp it
// stands for, must match both samples it was derived from — the whole
// point of keeping only their common lines.
func FuzzDeriveBodyRegexp(f *testing.F) {
	f.Add(
		[]byte("<html>\nThis page is blocked by policy.\nCategory: pornography\nsession 123\n</html>"),
		[]byte("<html>\nThis page is blocked by policy.\nCategory: pornography\nsession 456\n</html>"),
	)
	f.Add([]byte("same single line that is long enough\n"), []byte("same single line that is long enough\n"))
	f.Add([]byte("a\nb\nc"), []byte("d\ne\nf"))
	f.Add([]byte(""), []byte(""))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		p, err := DeriveBodyRegexp("Fuzz Product", [][]byte{a, b})
		if err != nil {
			return
		}
		if p.Detector == nil {
			t.Fatal("derived pattern without a detector")
		}
		re := derivedRegexp(t, p)
		for _, sample := range [][]byte{a, b} {
			if _, ok := p.Detector.Match(sample); !ok {
				t.Fatalf("derived detector (%q) does not match its own sample %q", re, sample)
			}
			if !re.Match(sample) {
				t.Fatalf("derived regexp %q does not match its own sample %q", re, sample)
			}
		}
	})
}
