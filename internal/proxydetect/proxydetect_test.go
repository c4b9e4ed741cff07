package proxydetect

import (
	"bufio"
	"context"
	"net"
	"net/netip"
	"strings"
	"testing"

	"filtermap/internal/httpwire"
	"filtermap/internal/netsim"
)

// fixture: a reference echo server, a clean ISP, a via-adding proxy ISP,
// and a blocking ISP.
type fixture struct {
	net     *netsim.Network
	refHost string
	clean   *netsim.Host
	proxied *netsim.Host
	blocked *netsim.Host
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	n := netsim.New(nil)
	t.Cleanup(n.Close)

	ref, err := n.AddHost(netip.MustParseAddr("192.0.2.1"), "echo.ref.example", nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpwire.Server{Handler: EchoHandler()}
	if _, err := ref.Serve(80, netsim.Public, srv); err != nil {
		t.Fatal(err)
	}

	mkISP := func(name, hostIP string, ic netsim.Interceptor) *netsim.Host {
		isp, err := n.AddISP(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := n.AddHost(netip.MustParseAddr(hostIP), "", isp)
		if err != nil {
			t.Fatal(err)
		}
		isp.SetInterceptor(ic)
		return h
	}

	relay, err := n.AddHost(netip.MustParseAddr("192.0.2.9"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	clean := mkISP("CleanNet", "10.1.2.2", nil)
	proxied := mkISP("ProxyNet", "10.2.2.2", viaProxy{relay: relay})
	blocked := mkISP("BlockNet", "10.3.2.2", blockAll{})

	return &fixture{net: n, refHost: "echo.ref.example", clean: clean, proxied: proxied, blocked: blocked}
}

// viaProxy forwards requests through a neutral relay host but adds Via
// and X-Forwarded-For and strips unknown headers — a typical enterprise
// proxy.
type viaProxy struct{ relay *netsim.Host }

func (p viaProxy) Intercept(info netsim.DialInfo) netsim.Handler {
	if info.Port != 80 {
		return nil
	}
	return netsim.HandlerFunc(func(conn net.Conn) {
		defer conn.Close()
		req, err := httpwire.ReadRequest(bufio.NewReader(conn))
		if err != nil {
			return
		}
		out := req.Clone()
		out.Header.Del(probeMarker) // paranoid middlebox strips unknown headers
		out.Header.Set("Via", "1.1 corporate-proxy")
		out.Header.Set("X-Forwarded-For", info.Src.String())
		out.Header.Set("Connection", "close")

		up, err := p.relay.Dial(context.Background(), info.Dst, info.Port)
		if err != nil {
			return
		}
		defer up.Close()
		if _, err := out.WriteTo(up); err != nil {
			return
		}
		resp, err := httpwire.ReadResponse(bufio.NewReader(up), false)
		if err != nil {
			return
		}
		resp.Header.Set("Via", "1.1 corporate-proxy")
		resp.Header.Set("Connection", "close")
		resp.WriteTo(conn) //nolint:errcheck // test
	})
}

// blockAll short-circuits everything with a block page.
type blockAll struct{}

func (blockAll) Intercept(info netsim.DialInfo) netsim.Handler {
	if info.Port != 80 {
		return nil
	}
	return netsim.HandlerFunc(func(conn net.Conn) {
		defer conn.Close()
		resp := httpwire.NewResponse(403, httpwire.NewHeader("Connection", "close"), []byte("<h1>blocked</h1>"))
		resp.WriteTo(conn) //nolint:errcheck // test
	})
}

func TestDetectClean(t *testing.T) {
	f := newFixture(t)
	d := &Detector{Vantage: f.clean, RefHost: f.refHost}
	rep := d.Detect(context.Background())
	if rep.Err != nil {
		t.Fatalf("probe error: %v", rep.Err)
	}
	if rep.Intercepted {
		t.Fatalf("clean network flagged: %s", rep.Summary())
	}
}

func TestDetectViaProxyEndToEnd(t *testing.T) {
	f := newFixture(t)
	d := &Detector{Vantage: f.proxied, RefHost: f.refHost}
	rep := d.Detect(context.Background())
	if rep.Err != nil {
		t.Fatalf("probe error: %v", rep.Err)
	}
	if !rep.Intercepted {
		t.Fatal("proxying network not flagged")
	}
	kinds := map[string]bool{}
	for _, e := range rep.Evidence {
		kinds[e.Kind] = true
	}
	if !kinds[KindViaAdded] || !kinds[KindMarkerDropped] || !kinds[KindHeaderInjected] {
		t.Fatalf("evidence kinds = %v, want via-added + marker-dropped + header-injected", kinds)
	}
}

func TestDetectBlocked(t *testing.T) {
	f := newFixture(t)
	d := &Detector{Vantage: f.blocked, RefHost: f.refHost}
	rep := d.Detect(context.Background())
	if rep.Err != nil {
		t.Fatalf("probe error: %v", rep.Err)
	}
	if !rep.Intercepted {
		t.Fatal("blocking network not flagged")
	}
	if rep.Evidence[0].Kind != KindShortCircuited {
		t.Fatalf("evidence = %+v", rep.Evidence)
	}
	if !strings.Contains(rep.Summary(), KindShortCircuited) {
		t.Fatalf("summary = %q", rep.Summary())
	}
}

func TestAnalyzeViaAndInjectedHeaders(t *testing.T) {
	sent, _ := httpwire.NewRequest("GET", "http://echo.ref.example/echo")
	sent.Header.Add(probeMarker, "nonce-1")
	// Simulate an echo body reporting proxy-modified headers.
	body := "method=GET target=/echo proto=HTTP/1.1\n" +
		"hdr:Host: echo.ref.example\n" +
		"hdr:X-Proxydetect-Nonce: nonce-1\n" +
		"hdr:Via: 1.1 corp-proxy\n" +
		"hdr:X-Forwarded-For: 10.2.2.2\n"
	resp := httpwire.NewResponse(200, httpwire.NewHeader("Via", "1.1 corp-proxy"), []byte(body))
	rep := Analyze(sent, resp, "nonce-1")
	if !rep.Intercepted {
		t.Fatal("not flagged")
	}
	kinds := map[string]bool{}
	for _, e := range rep.Evidence {
		kinds[e.Kind] = true
	}
	if !kinds[KindViaAdded] {
		t.Error("missing via-added evidence")
	}
	if !kinds[KindHeaderInjected] {
		t.Error("missing injected-header evidence (via/xff seen by origin)")
	}
}

func TestAnalyzeMarkerDropped(t *testing.T) {
	sent, _ := httpwire.NewRequest("GET", "http://r/echo")
	sent.Header.Add(probeMarker, "nonce-2")
	body := "method=GET target=/echo proto=HTTP/1.1\nhdr:Host: r\n"
	resp := httpwire.NewResponse(200, nil, []byte(body))
	rep := Analyze(sent, resp, "nonce-2")
	if !rep.Intercepted {
		t.Fatal("not flagged")
	}
	if rep.Evidence[0].Kind != KindMarkerDropped {
		t.Fatalf("evidence = %+v", rep.Evidence)
	}
}

func TestAnalyzeMarkerRewritten(t *testing.T) {
	sent, _ := httpwire.NewRequest("GET", "http://r/echo")
	sent.Header.Add(probeMarker, "nonce-3")
	body := "method=GET target=/echo proto=HTTP/1.1\nhdr:X-Proxydetect-Nonce: tampered\n"
	resp := httpwire.NewResponse(200, nil, []byte(body))
	rep := Analyze(sent, resp, "nonce-3")
	found := false
	for _, e := range rep.Evidence {
		if e.Kind == KindMarkerRewritten {
			found = true
		}
	}
	if !found {
		t.Fatalf("evidence = %+v", rep.Evidence)
	}
}

func TestAnalyzeCleanExchange(t *testing.T) {
	sent, _ := httpwire.NewRequest("GET", "http://r/echo")
	sent.Header.Add(probeMarker, "nonce-4")
	sent.Header.Add("Connection", "close")
	body := "method=GET target=/echo proto=HTTP/1.1\n" +
		"hdr:Host: r\nhdr:X-Proxydetect-Nonce: nonce-4\nhdr:Connection: close\n"
	resp := httpwire.NewResponse(200, nil, []byte(body))
	rep := Analyze(sent, resp, "nonce-4")
	if rep.Intercepted {
		t.Fatalf("clean exchange flagged: %+v", rep.Evidence)
	}
}

func TestSurveyOrdering(t *testing.T) {
	f := newFixture(t)
	results := Survey(context.Background(), f.refHost, map[string]*netsim.Host{
		"z-clean":   f.clean,
		"a-blocked": f.blocked,
	})
	if len(results) != 2 || results[0].Label != "a-blocked" || results[1].Label != "z-clean" {
		t.Fatalf("survey order = %+v", results)
	}
	if !results[0].Report.Intercepted || results[1].Report.Intercepted {
		t.Fatal("survey verdicts wrong")
	}
}

func TestSummaryOnError(t *testing.T) {
	rep := &Report{Err: context.DeadlineExceeded}
	if !strings.Contains(rep.Summary(), "probe failed") {
		t.Fatalf("summary = %q", rep.Summary())
	}
	clean := &Report{}
	if clean.Summary() != "no middlebox observed" {
		t.Fatalf("summary = %q", clean.Summary())
	}
}
