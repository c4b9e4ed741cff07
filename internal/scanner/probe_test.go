package scanner

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"time"

	"filtermap/internal/engine"
	"filtermap/internal/httpwire"
	"filtermap/internal/netsim"
)

// TestProbeRequestMatchesWriteTo: the probe's hand-rendered request is
// byte-identical to what Request.WriteTo writes for the same GET.
func TestProbeRequestMatchesWriteTo(t *testing.T) {
	for _, a := range []string{"192.0.2.1", "2001:db8::1"} {
		addr := netip.MustParseAddr(a)
		req := &httpwire.Request{
			Method: "GET",
			Target: "/",
			Proto:  "HTTP/1.0",
			Header: httpwire.NewHeader("Host", addr.String(), "Connection", "close"),
		}
		var want bytes.Buffer
		if _, err := req.WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		if got := appendProbeRequest(nil, addr); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: probe request %q, want %q", a, got, want.Bytes())
		}
	}
}

// TestExcerptDoesNotPinBody scans hosts serving large, distinct bodies:
// the index keeps each banner's excerpt, not the body it was cut from,
// so holding the index holds a few KB per banner rather than 256 KB.
func TestExcerptDoesNotPinBody(t *testing.T) {
	const hosts, bodyLen = 32, 256 << 10
	n := netsim.New(nil)
	t.Cleanup(n.Close)
	vantage, err := n.AddHost(netip.MustParseAddr("198.108.1.10"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []netip.Addr
	for i := 0; i < hosts; i++ {
		h, err := n.AddHost(netip.AddrFrom4([4]byte{192, 0, 2, byte(i + 1)}), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("host %d ", i) + strings.Repeat("x", bodyLen)
		resp := fmt.Sprintf("HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
		if _, err := h.Serve(80, netsim.Public, netsim.Response(resp)); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, h.Addr())
	}
	s := &Scanner{Vantage: vantage, Config: engine.NewConfig(engine.WithWorkers(4))}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	idx, err := s.ScanAddrs(context.Background(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	// Two GCs: the first moves the pooled read buffers (each grown to a
	// whole body) to the victim cache, the second drops them.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if idx.Len() != hosts {
		t.Fatalf("indexed %d banners, want %d", idx.Len(), hosts)
	}
	runtime.KeepAlive(idx)
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > 1<<20 {
		t.Fatalf("heap grew %.2f MB with the index live, want < 1 MB: excerpts pin their bodies", float64(growth)/(1<<20))
	}
}

// probeFixture returns a scanner and an index plus a host with port 80
// closed and port 8080 serving a canned banner.
func probeFixture(t *testing.T) (*Scanner, *Index, netip.Addr) {
	t.Helper()
	n := netsim.New(nil)
	t.Cleanup(n.Close)
	vantage, err := n.AddHost(netip.MustParseAddr("198.108.1.10"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := n.AddHost(netip.MustParseAddr("192.0.2.1"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	page := "<html><head><title>Welcome to nginx!</title></head><body>It works.</body></html>\n"
	resp := fmt.Sprintf("HTTP/1.0 200 OK\r\nContent-Type: text/html\r\nServer: nginx/1.2.1\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s", len(page), page)
	if _, err := h.Serve(8080, netsim.Public, netsim.Response(resp)); err != nil {
		t.Fatal(err)
	}
	return &Scanner{Vantage: vantage}, NewIndex(), h.Addr()
}

// TestAllocsProbeClosedPort pins a probe that meets a closed port at no
// allocation: the probe dials with DialProbe, whose refusal is the
// ErrConnRefused sentinel itself. CI runs this (make alloc-gate).
func TestAllocsProbeClosedPort(t *testing.T) {
	s, idx, addr := probeFixture(t)
	ctx := context.Background()
	deadline := time.Now().Add(time.Minute)
	if n := testing.AllocsPerRun(200, func() {
		s.probe(ctx, idx, addr, 80, deadline)
	}); n > 0 {
		t.Errorf("probe to a closed port allocates %v/op, want 0", n)
	}
	if idx.Len() != 0 {
		t.Fatalf("closed port indexed %d banners", idx.Len())
	}
}

// TestAllocsProbeCannedHost pins a probe that grabs a canned banner at
// one allocation or fewer: the connection. The banner is a
// netsim.Response, answered inside the dial by a connection with no pipe
// behind it, which drops the request instead of buffering it; the
// response read, the interned strings and the index insert allocate
// nothing once warm. CI runs this (make alloc-gate).
func TestAllocsProbeCannedHost(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts of pooled buffers are not meaningful under the race detector")
	}
	s, idx, addr := probeFixture(t)
	ctx := context.Background()
	deadline := time.Now().Add(time.Minute)
	s.probe(ctx, idx, addr, 8080, deadline)
	if idx.Len() != 1 {
		t.Fatalf("canned host indexed %d banners, want 1", idx.Len())
	}
	if n := testing.AllocsPerRun(200, func() {
		s.probe(ctx, idx, addr, 8080, deadline)
	}); n > 1 {
		t.Errorf("probe to a canned host allocates %v/op, want <= 1", n)
	}
}
