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
		for _, p := range c.patterns {
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
