package blockpage

import (
	"fmt"
	"testing"

	"filtermap/internal/httpwire"
)

func BenchmarkClassifyBlockedBody(b *testing.B) {
	c := NewClassifier(nil)
	resp := httpwire.NewResponse(403, nil, []byte(`<html><head>
<title>McAfee Web Gateway - Notification</title></head><body>
<h1>URL Blocked</h1><p>Category: Pornography</p></body></html>`))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := c.ClassifyResponse(resp, 0); !ok {
			b.Fatal("missed")
		}
	}
}

func BenchmarkClassifyRedirect(b *testing.B) {
	c := NewClassifier(nil)
	resp := httpwire.NewResponse(302, httpwire.NewHeader(
		"Location", "http://ns1.example:8080/webadmin/deny/index.php?cat=24&url=http%3A%2F%2Fx%2F"), nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := c.ClassifyResponse(resp, 0); !ok {
			b.Fatal("missed")
		}
	}
}

func BenchmarkClassifyMissOrdinaryPage(b *testing.B) {
	c := NewClassifier(nil)
	resp := httpwire.NewResponse(200, nil, []byte(`<html><head><title>Weather</title></head>
<body><p>Sunny with a chance of recipes. Nothing filtered here at all.</p></body></html>`))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := c.ClassifyResponse(resp, 0); ok {
			b.Fatal("false positive")
		}
	}
}

// BenchmarkClassifyChain is the headline per-probe cost: a realistic
// redirect chain — two ordinary pages that must be rejected, one
// unremarkable redirect, and a final vendor block page — pushed through
// the default corpus. This is the inner loop of scans, discovery and
// fmserve traffic; BENCH_classify.json tracks it.
func BenchmarkClassifyChain(b *testing.B) {
	c := NewClassifier(nil)
	chain := benchChain()
	total := 0
	for _, r := range chain {
		total += len(r.Body)
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, ok := c.ClassifyChain(chain)
		if !ok || m.Product != "McAfee SmartFilter" {
			b.Fatalf("classified %v, %v", m, ok)
		}
	}
}

// benchChain builds the BenchmarkClassifyChain workload: miss-heavy
// bodies sized like real pages, ending in a McAfee notification.
func benchChain() []*httpwire.Response {
	filler := make([]byte, 0, 4096)
	for i := 0; len(filler) < 4000; i++ {
		filler = append(filler, []byte(fmt.Sprintf(
			"<p>paragraph %d: entirely ordinary page content, weather and recipes, nothing filtered.</p>\n", i))...)
	}
	ordinary := func(title string) *httpwire.Response {
		return httpwire.NewResponse(200, httpwire.NewHeader("Content-Type", "text/html"),
			[]byte("<html><head><title>"+title+"</title></head><body>\n"+string(filler)+"</body></html>"))
	}
	redirect := httpwire.NewResponse(302, httpwire.NewHeader(
		"Location", "http://www.example.com/landing?ref=campaign"), nil)
	blocked := httpwire.NewResponse(403, httpwire.NewHeader("Content-Type", "text/html"),
		[]byte(`<html><head><title>McAfee Web Gateway - Notification</title></head><body>
<h1>URL Blocked</h1><p>Category: Pornography (23)</p>`+string(filler)+`</body></html>`))
	return []*httpwire.Response{ordinary("Portal"), redirect, ordinary("News"), blocked}
}
