package netsim

import (
	"context"
	"errors"
	"io"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"filtermap/internal/mechanism"
)

// mechWorld is a minimal two-ISP network: a subscriber inside a
// censoring ISP, a clean site outside it, and a sinkhole host.
type mechWorld struct {
	net        *Network
	isp        *ISP
	subscriber *Host
	site       *Host
	sink       *Host
}

func newMechWorld(t *testing.T) *mechWorld {
	t.Helper()
	n := New(nil)
	isp, err := n.AddISP("Censor Telecom")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.AddHost(netip.MustParseAddr("10.0.0.2"), "subscriber.censor.example", isp)
	if err != nil {
		t.Fatal(err)
	}
	site, err := n.AddHost(netip.MustParseAddr("192.0.2.10"), "blocked.example", nil)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := n.AddHost(netip.MustParseAddr("203.0.113.40"), "sinkhole.censor.example", isp)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return &mechWorld{net: n, isp: isp, subscriber: sub, site: site, sink: sink}
}

// echoHead serves each connection: read until CRLFCRLF, answer, then
// keep the server half open until the client closes. Closing right after
// the answer would race a test's later one-sided write past an injected
// reset, which then fails on the closed pipe.
func echoHead(t *testing.T, h *Host, port uint16) {
	t.Helper()
	if _, err := h.Serve(port, Public, HandlerFunc(func(c net.Conn) {
		defer c.Close()
		buf := make([]byte, 4096)
		total := 0
		for total < len(buf) {
			n, err := c.Read(buf[total:])
			total += n
			if strings.Contains(string(buf[:total]), "\r\n\r\n") || err != nil {
				break
			}
		}
		c.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"))
		io.Copy(io.Discard, c)
	})); err != nil {
		t.Fatal(err)
	}
}

func TestDNSPoisoningSinkholeAndNXDomain(t *testing.T) {
	w := newMechWorld(t)
	blocked := NewDomainSet("blocked.example")
	w.isp.SetMechanisms(&Mechanisms{
		DNS: DNSFilterFunc(func(src netip.Addr, name string) DNSVerdict {
			if blocked.Contains(name) {
				return DNSVerdict{Action: DNSSinkhole, Addr: w.sink.Addr()}
			}
			if name == "gone.example" {
				return DNSVerdict{Action: DNSNXDomain}
			}
			return DNSVerdict{Action: DNSClean}
		}),
	})
	echoHead(t, w.sink, 80)
	echoHead(t, w.site, 80)

	ctx := context.Background()
	// Subscriber resolving the blocked name lands on the sinkhole.
	c, err := w.subscriber.DialHost(ctx, "blocked.example", 80)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RemoteAddr().String(); !strings.HasPrefix(got, "203.0.113.40:") {
		t.Fatalf("poisoned dial went to %s, want sinkhole", got)
	}
	c.Close()

	// Injected NXDOMAIN surfaces as ErrNameNotFound.
	if _, err := w.subscriber.DialHost(ctx, "gone.example", 80); !errors.Is(err, ErrNameNotFound) {
		t.Fatalf("nxdomain dial err = %v, want ErrNameNotFound", err)
	}

	// A bypassing host (the lab vantage pattern) sees truthful DNS.
	w.subscriber.SetBypassIntercept(true)
	c, err = w.subscriber.DialHost(ctx, "blocked.example", 80)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RemoteAddr().String(); !strings.HasPrefix(got, "192.0.2.10:") {
		t.Fatalf("bypass dial went to %s, want true site", got)
	}
	c.Close()
}

func TestRSTInjectionOneSided(t *testing.T) {
	w := newMechWorld(t)
	w.isp.SetMechanisms(&Mechanisms{
		Host: HostFilterFunc(func(info DialInfo, host string) StreamVerdict {
			if host == "blocked.example" {
				return StreamVerdict{Action: StreamReset, TTL: 64, Window: 8192}
			}
			return StreamVerdict{Action: StreamPass}
		}),
	})
	echoHead(t, w.site, 80)

	c, err := w.subscriber.DialHost(context.Background(), "blocked.example", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n")); err != nil {
		t.Fatalf("triggering write failed: %v", err)
	}
	var re *ResetError
	if _, err := c.Read(make([]byte, 64)); !errors.As(err, &re) {
		t.Fatalf("read err = %v, want *ResetError", err)
	}
	if re.TTL != 64 || re.Window != 8192 {
		t.Fatalf("reset fingerprint = %+v", re)
	}
	// One-sided: later client writes still sail past the injector.
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatalf("one-sided write after reset failed: %v", err)
	}
	// The injected reset must NOT be mistaken for the chaos reset.
	if _, err := c.Read(make([]byte, 1)); errors.Is(err, ErrConnReset) {
		t.Fatal("injected reset aliases chaos ErrConnReset")
	}
}

func TestRSTInjectionBidirectional(t *testing.T) {
	w := newMechWorld(t)
	w.isp.SetMechanisms(&Mechanisms{
		Host: HostFilterFunc(func(info DialInfo, host string) StreamVerdict {
			return StreamVerdict{Action: StreamReset, TTL: 128, Window: 16384, Bidirectional: true}
		}),
	})
	echoHead(t, w.site, 80)

	c, err := w.subscriber.DialHost(context.Background(), "blocked.example", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n")); err != nil {
		t.Fatalf("triggering write failed: %v", err)
	}
	var re *ResetError
	if _, err := c.Read(make([]byte, 64)); !errors.As(err, &re) {
		t.Fatalf("read err = %v, want *ResetError", err)
	}
	// Bidirectional: both halves are dead, the next write fails too.
	if _, err := c.Write([]byte("x")); !errors.As(err, &re) {
		t.Fatalf("write after bidirectional reset = %v, want *ResetError", err)
	}
}

func TestRSTFallsBackToDialedHostname(t *testing.T) {
	w := newMechWorld(t)
	w.isp.SetMechanisms(&Mechanisms{
		Host: HostFilterFunc(func(info DialInfo, host string) StreamVerdict {
			if host == "blocked.example" {
				return StreamVerdict{Action: StreamReset, TTL: 255, Window: 512}
			}
			return StreamVerdict{Action: StreamPass}
		}),
	})
	echoHead(t, w.site, 80)

	// A request head with no Host header: the injector keys on the
	// hostname recorded at dial time.
	c, err := w.subscriber.DialHost(context.Background(), "blocked.example", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("GET / HTTP/1.0\r\n\r\n"))
	var re *ResetError
	if _, err := c.Read(make([]byte, 16)); !errors.As(err, &re) || re.TTL != 255 {
		t.Fatalf("read err = %v, want ttl-255 *ResetError", err)
	}
}

func TestHostFilterPassesCleanTraffic(t *testing.T) {
	w := newMechWorld(t)
	w.isp.SetMechanisms(&Mechanisms{
		Host: HostFilterFunc(func(info DialInfo, host string) StreamVerdict {
			if host == "blocked.example" {
				return StreamVerdict{Action: StreamReset, TTL: 64, Window: 8192}
			}
			return StreamVerdict{Action: StreamPass}
		}),
	})
	// Clean host on a second outside site.
	clean, err := w.net.AddHost(netip.MustParseAddr("192.0.2.20"), "clean.example", nil)
	if err != nil {
		t.Fatal(err)
	}
	echoHead(t, clean, 80)

	c, err := w.subscriber.DialHost(context.Background(), "clean.example", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Split the head across writes: the injector must buffer and still
	// deliver every byte once it decides to pass.
	head := "GET / HTTP/1.1\r\nHost: clean.example\r\n\r\n"
	c.Write([]byte(head[:10]))
	c.Write([]byte(head[10:]))
	buf := make([]byte, 256)
	n, err := c.Read(buf)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(buf[:n]), "HTTP/1.1 200") {
		t.Fatalf("clean response = %q", buf[:n])
	}
}

func TestSNIFilterResetAndDrop(t *testing.T) {
	w := newMechWorld(t)
	w.isp.SetMechanisms(&Mechanisms{
		SNI: SNIFilterFunc(func(info DialInfo, sni string, present bool) StreamVerdict {
			switch sni {
			case "blocked.example":
				return StreamVerdict{Action: StreamReset, TTL: 64, Window: 4096}
			case "dropped.example":
				return StreamVerdict{Action: StreamDrop}
			}
			return StreamVerdict{Action: StreamPass}
		}),
	})
	if _, err := w.site.Serve(443, Public, HandlerFunc(func(c net.Conn) {
		defer c.Close()
		buf := make([]byte, 4096)
		total := 0
		for {
			if n, ok := mechanism.RecordLength(buf[:total]); ok && total >= n {
				break
			}
			n, err := c.Read(buf[total:])
			total += n
			if err != nil {
				return
			}
		}
		c.Write(mechanism.BuildServerHello())
	})); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Blocked SNI: reset with the product fingerprint.
	c, err := w.subscriber.DialHost(ctx, "blocked.example", 443)
	if err != nil {
		t.Fatal(err)
	}
	c.Write(mechanism.BuildClientHello("blocked.example"))
	var re *ResetError
	if _, err := c.Read(make([]byte, 64)); !errors.As(err, &re) || re.Window != 4096 {
		t.Fatalf("sni reset read = %v, want win-4096 *ResetError", err)
	}
	c.Close()

	// Dropped SNI: reads report the eventual timeout, deterministically.
	c, err = w.subscriber.Dial(ctx, w.site.Addr(), 443)
	if err != nil {
		t.Fatal(err)
	}
	c.Write(mechanism.BuildClientHello("dropped.example"))
	if _, err := c.Read(make([]byte, 64)); !errors.Is(err, ErrConnTimeout) {
		t.Fatalf("sni drop read = %v, want ErrConnTimeout", err)
	}
	var ne net.Error
	if _, err := c.Read(make([]byte, 1)); !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("sni drop err is not a net.Error timeout: %v", err)
	}
	c.Close()

	// Clean SNI: the ClientHello passes and a ServerHello comes back.
	c, err = w.subscriber.DialHost(ctx, "blocked.example", 443) // dst is fine; only SNI matters
	if err != nil {
		t.Fatal(err)
	}
	c.Write(mechanism.BuildClientHello("clean.example"))
	buf := make([]byte, 256)
	n, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !mechanism.IsServerHello(buf[:n]) {
		t.Fatalf("clean SNI response = %x", buf[:n])
	}
	c.Close()
}

func TestSNIFilterESNIOmission(t *testing.T) {
	w := newMechWorld(t)
	var sawPresent, sawName string
	w.isp.SetMechanisms(&Mechanisms{
		SNI: SNIFilterFunc(func(info DialInfo, sni string, present bool) StreamVerdict {
			if present {
				sawPresent = "present"
			} else {
				sawPresent = "absent"
			}
			sawName = sni
			if !present {
				// ESNI-evading filter: omission slips through.
				return StreamVerdict{Action: StreamPass}
			}
			return StreamVerdict{Action: StreamReset, TTL: 64, Window: 4096}
		}),
	})
	if _, err := w.site.Serve(443, Public, HandlerFunc(func(c net.Conn) {
		defer c.Close()
		buf := make([]byte, 1024)
		c.Read(buf)
		c.Write(mechanism.BuildServerHello())
	})); err != nil {
		t.Fatal(err)
	}

	// Hello with no server_name: the filter sees present == false and the
	// dialed hostname as fallback context.
	c, err := w.subscriber.DialHost(context.Background(), "blocked.example", 443)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write(mechanism.BuildClientHello(""))
	buf := make([]byte, 256)
	n, err := c.Read(buf)
	if err != nil || !mechanism.IsServerHello(buf[:n]) {
		t.Fatalf("esni-omission read = %v (%d bytes)", err, n)
	}
	if sawPresent != "absent" || sawName != "blocked.example" {
		t.Fatalf("filter saw %s/%q, want absent/blocked.example", sawPresent, sawName)
	}
}

func TestMechanismsSkipSameISPAndBypass(t *testing.T) {
	w := newMechWorld(t)
	w.isp.SetMechanisms(&Mechanisms{
		Host: HostFilterFunc(func(info DialInfo, host string) StreamVerdict {
			return StreamVerdict{Action: StreamReset, TTL: 1, Window: 1}
		}),
	})
	echoHead(t, w.sink, 80) // sink is inside the same ISP
	echoHead(t, w.site, 80)

	ctx := context.Background()
	// Same-ISP traffic is never inspected.
	c, err := w.subscriber.Dial(ctx, w.sink.Addr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("GET / HTTP/1.1\r\nHost: sinkhole.censor.example\r\n\r\n"))
	buf := make([]byte, 64)
	if _, err := c.Read(buf); err != nil && err != io.EOF {
		t.Fatalf("same-ISP traffic inspected: %v", err)
	}
	c.Close()

	// Bypass hosts (middlebox's own probes) are never inspected.
	w.subscriber.SetBypassIntercept(true)
	c, err = w.subscriber.DialHost(ctx, "blocked.example", 80)
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n"))
	if _, err := c.Read(buf); err != nil && err != io.EOF {
		t.Fatalf("bypass traffic inspected: %v", err)
	}
	c.Close()
}

func TestDomainSet(t *testing.T) {
	s := NewDomainSet("Blocked.Example", "news.example")
	for name, want := range map[string]bool{
		"blocked.example":     true,
		"www.Blocked.Example": true,
		"a.b.news.example":    true,
		"notblocked.example":  false,
		"example":             false,
		"":                    false,
	} {
		if got := s.Contains(name); got != want {
			t.Fatalf("Contains(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestMechConnDeadlinesDelegate(t *testing.T) {
	w := newMechWorld(t)
	w.isp.SetMechanisms(&Mechanisms{
		Host: HostFilterFunc(func(info DialInfo, host string) StreamVerdict {
			return StreamVerdict{Action: StreamPass}
		}),
	})
	if _, err := w.site.Serve(80, Public, HandlerFunc(func(c net.Conn) {
		// Never respond; hold the conn open until the peer goes away.
		defer c.Close()
		io.Copy(io.Discard, c)
	})); err != nil {
		t.Fatal(err)
	}
	c, err := w.subscriber.DialHost(context.Background(), "blocked.example", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	if err := c.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	var ne net.Error
	if _, err := c.Read(make([]byte, 1)); !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("deadline read = %v, want timeout", err)
	}
}
