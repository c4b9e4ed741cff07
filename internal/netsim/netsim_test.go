package netsim

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func mustAddr(t testing.TB, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatalf("ParseAddr(%q): %v", s, err)
	}
	return a
}

func mustPrefix(t testing.TB, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatalf("ParsePrefix(%q): %v", s, err)
	}
	return p
}

func newTestNet(t testing.TB) *Network {
	t.Helper()
	n := New(nil)
	t.Cleanup(n.Close)
	return n
}

// serve binds a Public port on h that runs f per connection, failing the
// test if the bind fails.
func serve(t testing.TB, h *Host, port uint16, f func(net.Conn)) {
	t.Helper()
	if _, err := h.Serve(port, Public, HandlerFunc(f)); err != nil {
		t.Fatalf("Serve %d: %v", port, err)
	}
}

func TestAddHostAndResolve(t *testing.T) {
	n := newTestNet(t)
	addr := mustAddr(t, "192.0.2.10")
	h, err := n.AddHost(addr, "www.example.org", nil)
	if err != nil {
		t.Fatalf("AddHost: %v", err)
	}
	if h.Addr() != addr {
		t.Fatalf("host addr = %v, want %v", h.Addr(), addr)
	}
	got, err := n.Resolve("WWW.EXAMPLE.ORG")
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if got != addr {
		t.Fatalf("Resolve = %v, want %v", got, addr)
	}
	name, ok := n.ReverseLookup(addr)
	if !ok || name != "www.example.org" {
		t.Fatalf("ReverseLookup = %q, %v", name, ok)
	}
}

func TestAddHostDuplicateFails(t *testing.T) {
	n := newTestNet(t)
	addr := mustAddr(t, "192.0.2.10")
	if _, err := n.AddHost(addr, "a", nil); err != nil {
		t.Fatalf("AddHost: %v", err)
	}
	if _, err := n.AddHost(addr, "b", nil); !errors.Is(err, ErrHostExists) {
		t.Fatalf("second AddHost err = %v, want ErrHostExists", err)
	}
}

func TestResolveUnknownHost(t *testing.T) {
	n := newTestNet(t)
	if _, err := n.Resolve("nope.invalid"); !errors.Is(err, ErrNameNotFound) {
		t.Fatalf("err = %v, want ErrNameNotFound", err)
	}
}

func TestDialEcho(t *testing.T) {
	n := newTestNet(t)
	srvHost, _ := n.AddHost(mustAddr(t, "192.0.2.1"), "server.test", nil)
	cliHost, _ := n.AddHost(mustAddr(t, "192.0.2.2"), "client.test", nil)

	serve(t, srvHost, 7, func(c net.Conn) {
		defer c.Close()
		io.Copy(c, c) //nolint:errcheck // echo until close
	})

	conn, err := cliHost.Dial(context.Background(), srvHost.Addr(), 7)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	msg := "hello through the simulated internet"
	if _, err := conn.Write([]byte(msg)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	if string(buf) != msg {
		t.Fatalf("echo = %q, want %q", buf, msg)
	}
}

func TestDialByHostname(t *testing.T) {
	n := newTestNet(t)
	srvHost, _ := n.AddHost(mustAddr(t, "192.0.2.1"), "server.test", nil)
	cliHost, _ := n.AddHost(mustAddr(t, "192.0.2.2"), "", nil)
	serve(t, srvHost, 80, func(c net.Conn) {
		c.Write([]byte("ok")) //nolint:errcheck // test server
		c.Close()
	})
	conn, err := cliHost.DialHost(context.Background(), "server.test", 80)
	if err != nil {
		t.Fatalf("DialHost: %v", err)
	}
	defer conn.Close()
	b, _ := io.ReadAll(conn)
	if string(b) != "ok" {
		t.Fatalf("read %q, want ok", b)
	}
}

// TestDialClosedPortRefused checks a refused dial, to a closed port or to
// an ISPOnly port from outside the ISP: it wraps ErrConnRefused, names
// the address and port, and costs at most one allocation, since a scan
// meets far more closed ports than open ones.
func TestDialClosedPortRefused(t *testing.T) {
	n := newTestNet(t)
	as, _ := n.AddAS(64500, "TEST-AS", "qa", mustPrefix(t, "198.51.100.0/24"))
	isp, _ := n.AddISP("TestISP", as)
	srvHost, _ := n.AddHost(mustAddr(t, "192.0.2.1"), "", nil)
	filter, _ := n.AddHost(mustAddr(t, "198.51.100.1"), "", isp)
	cliHost, _ := n.AddHost(mustAddr(t, "192.0.2.2"), "", nil)
	if _, err := filter.Serve(8080, ISPOnly, HandlerFunc(func(c net.Conn) { c.Close() })); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for _, c := range []struct {
		dst  *Host
		port uint16
		want string
	}{
		{srvHost, 81, "netsim: connection refused: 192.0.2.1:81"},
		{filter, 8080, "netsim: connection refused: 198.51.100.1:8080"},
	} {
		_, err := cliHost.Dial(ctx, c.dst.Addr(), c.port)
		if !errors.Is(err, ErrConnRefused) {
			t.Fatalf("dial %s:%d err = %v, want ErrConnRefused", c.dst.Addr(), c.port, err)
		}
		if err.Error() != c.want {
			t.Fatalf("dial %s:%d err = %q, want %q", c.dst.Addr(), c.port, err, c.want)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := cliHost.Dial(ctx, c.dst.Addr(), c.port); err == nil {
				t.Fatal("dial succeeded")
			}
		})
		if allocs > 1 {
			t.Fatalf("refused dial to %s:%d allocates %v, want <= 1", c.dst.Addr(), c.port, allocs)
		}
	}
}

func TestDialUnknownAddrUnreachable(t *testing.T) {
	n := newTestNet(t)
	cliHost, _ := n.AddHost(mustAddr(t, "192.0.2.2"), "", nil)
	_, err := cliHost.Dial(context.Background(), mustAddr(t, "203.0.113.99"), 80)
	if !errors.Is(err, ErrHostUnreach) {
		t.Fatalf("err = %v, want ErrHostUnreach", err)
	}
}

func TestISPOnlyVisibility(t *testing.T) {
	n := newTestNet(t)
	as, _ := n.AddAS(64500, "TEST-AS", "qa", mustPrefix(t, "198.51.100.0/24"))
	isp, _ := n.AddISP("TestISP", as)
	filter, _ := n.AddHost(mustAddr(t, "198.51.100.1"), "filter.isp.test", isp)
	inside, _ := n.AddHost(mustAddr(t, "198.51.100.2"), "", isp)
	outside, _ := n.AddHost(mustAddr(t, "192.0.2.9"), "", nil)

	if _, err := filter.Serve(8080, ISPOnly, HandlerFunc(func(c net.Conn) {
		c.Write([]byte("admin")) //nolint:errcheck // test server
		c.Close()
	})); err != nil {
		t.Fatalf("Serve: %v", err)
	}

	// Inside the ISP: reachable.
	conn, err := inside.Dial(context.Background(), filter.Addr(), 8080)
	if err != nil {
		t.Fatalf("inside dial: %v", err)
	}
	conn.Close()

	// Outside: refused, indistinguishable from a closed port.
	if _, err := outside.Dial(context.Background(), filter.Addr(), 8080); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("outside dial err = %v, want ErrConnRefused", err)
	}
}

func TestASLookup(t *testing.T) {
	n := newTestNet(t)
	as, err := n.AddAS(5384, "EMIRATES-INTERNET Etisalat", "AE", mustPrefix(t, "94.56.0.0/16"))
	if err != nil {
		t.Fatalf("AddAS: %v", err)
	}
	if as.Number != 5384 || as.Country != "AE" {
		t.Fatalf("AddAS = AS%d %s, want AS5384 AE", as.Number, as.Country)
	}
	if !as.Contains(mustAddr(t, "94.56.1.2")) {
		t.Fatal("AS5384 does not contain an address in its prefix")
	}
	if as.Contains(mustAddr(t, "10.0.0.1")) {
		t.Fatal("AS5384 contains an address outside its prefix")
	}
}

func TestAddASDuplicateNumber(t *testing.T) {
	n := newTestNet(t)
	if _, err := n.AddAS(100, "A", "US"); err != nil {
		t.Fatalf("AddAS: %v", err)
	}
	if _, err := n.AddAS(100, "B", "US"); err == nil {
		t.Fatal("duplicate AS number accepted")
	}
}

// staticHandler terminates intercepted conns with a fixed payload.
type staticHandler string

func (s staticHandler) ServeConn(conn net.Conn) {
	defer conn.Close()
	conn.Write([]byte(s)) //nolint:errcheck // test helper
}

func TestInterceptorSeesEgressTraffic(t *testing.T) {
	n := newTestNet(t)
	as, _ := n.AddAS(12486, "YEMENNET", "YE", mustPrefix(t, "82.114.160.0/19"))
	isp, _ := n.AddISP("YemenNet", as)
	inside, _ := n.AddHost(mustAddr(t, "82.114.160.5"), "", isp)
	outsideSrv, _ := n.AddHost(mustAddr(t, "192.0.2.1"), "origin.test", nil)
	serve(t, outsideSrv, 80, func(c net.Conn) {
		c.Write([]byte("origin")) //nolint:errcheck // test server
		c.Close()
	})

	var seen []DialInfo
	isp.SetInterceptor(InterceptorFunc(func(info DialInfo) Handler {
		seen = append(seen, info)
		if info.Port == 80 {
			return staticHandler("blocked")
		}
		return nil
	}))

	// Port 80 is intercepted.
	conn, err := inside.DialHost(context.Background(), "origin.test", 80)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	b, _ := io.ReadAll(conn)
	conn.Close()
	if string(b) != "blocked" {
		t.Fatalf("intercepted read = %q, want blocked", b)
	}
	if len(seen) != 1 || seen[0].Hostname != "origin.test" {
		t.Fatalf("interceptor saw %+v, want one dial with hostname origin.test", seen)
	}
}

func TestInterceptorPassThrough(t *testing.T) {
	n := newTestNet(t)
	as, _ := n.AddAS(12486, "YEMENNET", "YE", mustPrefix(t, "82.114.160.0/19"))
	isp, _ := n.AddISP("YemenNet", as)
	inside, _ := n.AddHost(mustAddr(t, "82.114.160.5"), "", isp)
	outsideSrv, _ := n.AddHost(mustAddr(t, "192.0.2.1"), "", nil)
	serve(t, outsideSrv, 22, func(c net.Conn) {
		c.Write([]byte("ssh")) //nolint:errcheck // test server
		c.Close()
	})
	isp.SetInterceptor(InterceptorFunc(func(info DialInfo) Handler { return nil }))
	conn, err := inside.Dial(context.Background(), outsideSrv.Addr(), 22)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	b, _ := io.ReadAll(conn)
	conn.Close()
	if string(b) != "ssh" {
		t.Fatalf("read %q, want ssh (pass-through)", b)
	}
}

func TestInterceptorSkipsSameISPTraffic(t *testing.T) {
	n := newTestNet(t)
	as, _ := n.AddAS(64501, "AS", "YE", mustPrefix(t, "10.1.0.0/16"))
	isp, _ := n.AddISP("ISP", as)
	inside, _ := n.AddHost(mustAddr(t, "10.1.0.5"), "", isp)
	filter, _ := n.AddHost(mustAddr(t, "10.1.0.1"), "", isp)
	serve(t, filter, 8080, func(c net.Conn) {
		c.Write([]byte("console")) //nolint:errcheck // test server
		c.Close()
	})
	isp.SetInterceptor(InterceptorFunc(func(info DialInfo) Handler {
		return staticHandler("intercepted")
	}))
	conn, err := inside.Dial(context.Background(), filter.Addr(), 8080)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	b, _ := io.ReadAll(conn)
	conn.Close()
	if string(b) != "console" {
		t.Fatalf("read %q, want console (same-ISP traffic must not be intercepted)", b)
	}
}

func TestBypassInterceptHost(t *testing.T) {
	n := newTestNet(t)
	as, _ := n.AddAS(64501, "AS", "YE", mustPrefix(t, "10.1.0.0/16"))
	isp, _ := n.AddISP("ISP", as)
	mb, _ := n.AddHost(mustAddr(t, "10.1.0.1"), "", isp)
	mb.SetBypassIntercept(true)
	origin, _ := n.AddHost(mustAddr(t, "192.0.2.1"), "", nil)
	serve(t, origin, 80, func(c net.Conn) {
		c.Write([]byte("origin")) //nolint:errcheck // test server
		c.Close()
	})
	isp.SetInterceptor(InterceptorFunc(func(info DialInfo) Handler {
		return staticHandler("intercepted")
	}))
	conn, err := mb.Dial(context.Background(), origin.Addr(), 80)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	b, _ := io.ReadAll(conn)
	conn.Close()
	if string(b) != "origin" {
		t.Fatalf("middlebox's own dial was intercepted: %q", b)
	}
}

func TestRemoveHostDropsDNSAndListeners(t *testing.T) {
	n := newTestNet(t)
	h, _ := n.AddHost(mustAddr(t, "192.0.2.3"), "gone.test", nil)
	cli, _ := n.AddHost(mustAddr(t, "192.0.2.4"), "", nil)
	serve(t, h, 80, func(c net.Conn) { c.Close() })
	n.RemoveHost(h.Addr())
	if _, err := n.Resolve("gone.test"); err == nil {
		t.Fatal("DNS record survived RemoveHost")
	}
	if _, err := h.Serve(80, Public, HandlerFunc(func(c net.Conn) { c.Close() })); err != nil {
		t.Fatalf("port 80 still bound after RemoveHost: %v", err)
	}
	if _, err := cli.Dial(context.Background(), h.Addr(), 80); !errors.Is(err, ErrHostUnreach) {
		t.Fatalf("dial err = %v, want ErrHostUnreach", err)
	}
}

func TestNetworkCloseStopsDials(t *testing.T) {
	n := New(nil)
	h, _ := n.AddHost(mustAddr(t, "192.0.2.3"), "", nil)
	n.Close()
	if _, err := h.Dial(context.Background(), mustAddr(t, "192.0.2.4"), 80); !errors.Is(err, ErrNetworkClosed) {
		t.Fatalf("err = %v, want ErrNetworkClosed", err)
	}
}

func TestHostsSortedByAddr(t *testing.T) {
	n := newTestNet(t)
	n.AddHost(mustAddr(t, "192.0.2.20"), "", nil) //nolint:errcheck // test setup
	n.AddHost(mustAddr(t, "192.0.2.5"), "", nil)  //nolint:errcheck // test setup
	n.AddHost(mustAddr(t, "192.0.2.11"), "", nil) //nolint:errcheck // test setup
	hosts := n.Hosts()
	if len(hosts) != 3 {
		t.Fatalf("len(Hosts) = %d, want 3", len(hosts))
	}
	for i := 1; i < len(hosts); i++ {
		if !hosts[i-1].Addr().Less(hosts[i].Addr()) {
			t.Fatalf("hosts not sorted: %v before %v", hosts[i-1].Addr(), hosts[i].Addr())
		}
	}
}

func TestConnDeadline(t *testing.T) {
	n := newTestNet(t)
	srv, _ := n.AddHost(mustAddr(t, "192.0.2.1"), "", nil)
	cli, _ := n.AddHost(mustAddr(t, "192.0.2.2"), "", nil)
	serve(t, srv, 80, func(c net.Conn) {
		// Hold the connection open without writing.
		time.Sleep(2 * time.Second)
		c.Close()
	})
	conn, err := cli.Dial(context.Background(), srv.Addr(), 80)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) //nolint:errcheck // test
	buf := make([]byte, 1)
	start := time.Now()
	_, err = conn.Read(buf)
	if err == nil {
		t.Fatal("Read succeeded, want deadline error")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline took %v, want ~50ms", elapsed)
	}
}

func TestPipeLargeTransfer(t *testing.T) {
	n := newTestNet(t)
	srv, _ := n.AddHost(mustAddr(t, "192.0.2.1"), "", nil)
	cli, _ := n.AddHost(mustAddr(t, "192.0.2.2"), "", nil)
	const size = 3 << 20 // larger than the pipe buffer
	serve(t, srv, 80, func(c net.Conn) {
		defer c.Close()
		chunk := strings.Repeat("x", 64<<10)
		sent := 0
		for sent < size {
			m := min(len(chunk), size-sent)
			if _, err := c.Write([]byte(chunk[:m])); err != nil {
				return
			}
			sent += m
		}
	})
	conn, err := cli.Dial(context.Background(), srv.Addr(), 80)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	nread, err := io.Copy(io.Discard, conn)
	if err != nil {
		t.Fatalf("Copy: %v", err)
	}
	if nread != size {
		t.Fatalf("read %d bytes, want %d", nread, size)
	}
}

func TestCloseWriteHalfClose(t *testing.T) {
	n := newTestNet(t)
	srv, _ := n.AddHost(mustAddr(t, "192.0.2.1"), "", nil)
	cli, _ := n.AddHost(mustAddr(t, "192.0.2.2"), "", nil)
	serve(t, srv, 80, func(c net.Conn) {
		defer c.Close()
		// Read everything the client sent, then respond.
		br := bufio.NewReader(c)
		b, _ := io.ReadAll(br)
		c.Write([]byte("got:" + string(b))) //nolint:errcheck // test server
	})
	conn, err := cli.Dial(context.Background(), srv.Addr(), 80)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	conn.Write([]byte("ping")) //nolint:errcheck // test
	type closeWriter interface{ CloseWrite() error }
	if cw, ok := conn.(closeWriter); ok {
		cw.CloseWrite() //nolint:errcheck // test
	} else {
		t.Fatal("conn does not support CloseWrite")
	}
	b, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(b) != "got:ping" {
		t.Fatalf("read %q, want got:ping", b)
	}
}

func TestAddrOf(t *testing.T) {
	a := simAddr{addr: mustAddr(t, "1.2.3.4"), port: 80}
	if got := AddrOf(a); got != a.addr {
		t.Fatalf("AddrOf = %v, want %v", got, a.addr)
	}
	if got := AddrOf(&net.TCPAddr{}); got.IsValid() {
		t.Fatalf("AddrOf(foreign) = %v, want zero", got)
	}
}

// TestPipeStreamIntegrityProperty: arbitrary write chunkings arrive
// in order and intact at the reader.
func TestPipeStreamIntegrityProperty(t *testing.T) {
	f := func(chunks [][]byte) bool {
		total := 0
		for _, c := range chunks {
			total += len(c)
		}
		if total > 1<<20 { // stay under the pipe buffer for a sync test
			return true
		}
		a, b := newConnPair(simAddr{}, simAddr{})
		defer a.Close()
		defer b.Close()
		done := make(chan []byte)
		go func() {
			buf, _ := io.ReadAll(b)
			done <- buf
		}()
		var want []byte
		for _, c := range chunks {
			want = append(want, c...)
			if len(c) == 0 {
				continue
			}
			if _, err := a.Write(c); err != nil {
				return false
			}
		}
		a.CloseWrite()
		got := <-done
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPipeWriteAfterPeerCloseErrors: writes to a closed peer fail rather
// than block.
func TestPipeWriteAfterPeerCloseErrors(t *testing.T) {
	a, b := newConnPair(simAddr{}, simAddr{})
	b.Close()
	if _, err := a.Write([]byte("x")); err == nil {
		t.Fatal("write to closed peer succeeded")
	}
	a.Close()
	if _, err := a.Write([]byte("x")); err == nil {
		t.Fatal("write on closed conn succeeded")
	}
}
