package measurement

import (
	"context"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"filtermap/internal/httpwire"
	"filtermap/internal/netsim"
)

// newReuseFixture builds the connection-reuse benchmark world: a clean
// (un-intercepted) path from a field and a lab vantage to one origin
// serving every URL on the list, so each vantage can multiplex the whole
// list over a handful of kept-alive connections.
func newReuseFixture(tb testing.TB) *Client {
	tb.Helper()
	n := netsim.New(nil)
	tb.Cleanup(n.Close)
	// A per-dial WAN round trip: without it both legs measure only the
	// in-process exchange cost and the reuse win shrinks to allocations.
	n.SetDialLatency(200 * time.Microsecond)

	isp, err := n.AddISP("BenchNet")
	if err != nil {
		tb.Fatal(err)
	}
	field, err := n.AddHost(netip.MustParseAddr("198.51.100.20"), "", isp)
	if err != nil {
		tb.Fatal(err)
	}
	lab, err := n.AddHost(netip.MustParseAddr("128.100.50.10"), "lab.example", nil)
	if err != nil {
		tb.Fatal(err)
	}
	origin, err := n.AddHost(netip.MustParseAddr("192.0.2.80"), "list.example", nil)
	if err != nil {
		tb.Fatal(err)
	}
	srv := &httpwire.Server{Handler: httpwire.HandlerFunc(func(req *httpwire.Request) *httpwire.Response {
		return httpwire.NewResponse(200, nil, []byte("content of "+req.Target))
	})}
	if _, err := origin.Serve(80, netsim.Public, srv); err != nil {
		tb.Fatal(err)
	}

	return &Client{
		Field: &Vantage{Name: "field:BenchNet", Host: field},
		Lab:   &Vantage{Name: "lab", Host: lab},
	}
}

// BenchmarkListReuse measures the probe-multiplexing win: the same
// URL-list measurement with per-vantage keep-alive pooling against the
// old dial-per-request behavior. Tracked in BENCH_monitor.json via
// scripts/bench_json.sh monitor.
func BenchmarkListReuse(b *testing.B) {
	urls := make([]string, 16)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://list.example/page-%d", i)
	}
	run := func(b *testing.B, disable bool) {
		c := newReuseFixture(b)
		c.DisableReuse = disable
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			results := c.TestList(ctx, urls)
			if len(results) != len(urls) {
				b.Fatalf("got %d results, want %d", len(results), len(urls))
			}
			for _, r := range results {
				if r.Verdict != Accessible {
					b.Fatalf("%s verdict = %v, want accessible", r.URL, r.Verdict)
				}
			}
		}
		b.StopTimer()
		reused, pooled := c.ReuseStats()
		if disable {
			if reused != 0 || pooled != 0 {
				b.Fatalf("reuse disabled but stats = reused %d, pooled %d", reused, pooled)
			}
			return
		}
		if reused == 0 {
			b.Fatal("pooling enabled but no connection was ever reused")
		}
	}
	b.Run("pooled", func(b *testing.B) { run(b, false) })
	b.Run("dial-per-request", func(b *testing.B) { run(b, true) })
}
