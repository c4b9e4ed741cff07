package fingerprint

import (
	"context"
	"net/netip"
	"testing"

	"filtermap/internal/httpwire"
	"filtermap/internal/netsim"
)

// BenchmarkFingerprintIdentify is the headline validation cost: one full
// probe sweep (six port/path probes, most refused) against a host whose
// answer every Table 2 signature must be evaluated on.
// BENCH_classify.json tracks it.
func BenchmarkFingerprintIdentify(b *testing.B) {
	n := netsim.New(nil)
	b.Cleanup(n.Close)
	vantage, err := n.AddHost(netip.MustParseAddr("198.108.1.10"), "", nil)
	if err != nil {
		b.Fatal(err)
	}
	target, err := n.AddHost(netip.MustParseAddr("192.0.2.1"), "mwg.example", nil)
	if err != nil {
		b.Fatal(err)
	}
	srv := &httpwire.Server{Handler: httpwire.HandlerFunc(func(*httpwire.Request) *httpwire.Response {
		return httpwire.NewResponse(200, httpwire.NewHeader("Via-Proxy", "mwg.example"),
			[]byte(`<html><head><title>McAfee Web Gateway - Notification</title></head>
<body><h1>URL Blocked</h1><p>The requested page is not reachable from this network.</p>
<p>Category: Anonymizers</p><p>Powered by policy, not by magic.</p></body></html>`))
	})}
	if _, err := target.Serve(80, netsim.Public, srv); err != nil {
		b.Fatal(err)
	}

	engine := &Engine{Vantage: vantage}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matches, err := engine.Identify(ctx, target.Addr())
		if err != nil {
			b.Fatal(err)
		}
		if len(matches) < 2 {
			b.Fatalf("matches = %d, want >= 2", len(matches))
		}
	}
}

// BenchmarkExtractTitle measures the title scan on a miss-heavy body (no
// title at all — the common case for scanned banners).
func BenchmarkExtractTitle(b *testing.B) {
	body := make([]byte, 0, 8192)
	for len(body) < 8000 {
		body = append(body, []byte("<div class=\"row\">plain page content with no head section at all</div>\n")...)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := ExtractTitleBytes(body); ok {
			b.Fatal("unexpected title")
		}
	}
}
