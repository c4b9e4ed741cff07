package netsim

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// toyRealm owns 240.0.0.1 .. 240.0.0.N. Each address serves a one-line
// banner derived from it on port 80 and refuses every other port,
// without becoming a Host — except the console address, which is a real
// Host in the realm's own ISP, built on its first dial with port 80
// bound at visibility vis. builds counts console builds, so tests can
// prove they happen once.
type toyRealm struct {
	net     *Network
	n       int
	console int // host index of the console; 0 for none
	vis     Visibility

	// added and release, when set, park the console build between
	// registering the host and binding its port: added is closed once
	// the host is registered, and the build waits for release.
	added, release chan struct{}

	once   sync.Once
	host   *Host
	builds atomic.Int64
}

func (r *toyRealm) addr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{240, 0, 0, byte(i)})
}

func (r *toyRealm) Contains(addr netip.Addr) bool {
	a4 := addr.As4()
	return a4[0] == 240 && a4[1] == 0 && a4[2] == 0 && int(a4[3]) >= 1 && int(a4[3]) <= r.n
}

func (r *toyRealm) Addrs() []netip.Addr {
	out := make([]netip.Addr, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.addr(i))
	}
	return out
}

func (r *toyRealm) Resolve(name string) (netip.Addr, bool) {
	var i int
	if _, err := fmt.Sscanf(name, "lazy-%d.realm.test", &i); err != nil || i < 1 || i > r.n {
		return netip.Addr{}, false
	}
	return r.addr(i), true
}

func (r *toyRealm) ReverseLookup(addr netip.Addr) (string, bool) {
	if !r.Contains(addr) {
		return "", false
	}
	return fmt.Sprintf("lazy-%d.realm.test", addr.As4()[3]), true
}

func (r *toyRealm) Port(addr netip.Addr, port uint16) (*Host, Handler, bool) {
	if !r.Contains(addr) {
		return nil, nil, false
	}
	if int(addr.As4()[3]) == r.console {
		return r.buildConsole(), nil, true
	}
	if port != 80 {
		return nil, nil, true
	}
	return nil, bannerHandler(addr), true
}

func (r *toyRealm) buildConsole() *Host {
	r.once.Do(func() {
		r.builds.Add(1)
		as, err := r.net.AddAS(64999, "TOY-REALM", "ZZ", netip.MustParsePrefix("240.0.0.0/24"))
		if err != nil {
			return
		}
		isp, err := r.net.AddISP("Toy Realm", as)
		if err != nil {
			return
		}
		addr := r.addr(r.console)
		name, _ := r.ReverseLookup(addr)
		h, err := r.net.AddHost(addr, name, isp)
		if err != nil {
			return
		}
		if r.added != nil {
			close(r.added)
			<-r.release
		}
		if _, err := h.Serve(80, r.vis, bannerHandler(addr)); err == nil {
			r.host = h
		}
	})
	return r.host
}

func bannerHandler(addr netip.Addr) Handler {
	banner := fmt.Sprintf("BANNER %s\n", addr)
	return HandlerFunc(func(conn net.Conn) {
		defer conn.Close()
		io.WriteString(conn, banner)
	})
}

func newRealmNet(t *testing.T, r *toyRealm) (*Network, *toyRealm, *Host) {
	t.Helper()
	nw := New(nil)
	r.net = nw
	nw.SetRealm(r)
	src, err := nw.AddHost(netip.MustParseAddr("198.51.100.1"), "probe.test", nil)
	if err != nil {
		t.Fatal(err)
	}
	return nw, r, src
}

func readBanner(t *testing.T, c net.Conn) string {
	t.Helper()
	defer c.Close()
	line, err := bufio.NewReader(c).ReadString('\n')
	if err != nil {
		t.Fatalf("read banner: %v", err)
	}
	return line
}

// TestRealmDialAnswers: a realm address serves a banner with no Host
// behind it, refuses a closed port, and delivers to its ISPOnly console
// host, built once on first dial, only from inside the console's ISP.
// An address outside the realm stays unreachable.
func TestRealmDialAnswers(t *testing.T) {
	nw, r, src := newRealmNet(t, &toyRealm{n: 4, console: 4, vis: ISPOnly})
	defer nw.Close()
	ctx := context.Background()

	c, err := src.Dial(ctx, r.addr(3), 80)
	if err != nil {
		t.Fatalf("dial realm banner: %v", err)
	}
	if got, want := readBanner(t, c), "BANNER 240.0.0.3\n"; got != want {
		t.Fatalf("banner = %q, want %q", got, want)
	}
	if _, ok := nw.Host(r.addr(3)); ok {
		t.Fatal("a banner address became a Host")
	}
	if _, err := src.Dial(ctx, r.addr(3), 8080); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("dial closed realm port: %v, want ErrConnRefused", err)
	}

	// The console refuses outsiders like a closed port, but its first
	// dial still builds it.
	if _, err := src.Dial(ctx, r.addr(4), 80); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("outside dial to ISPOnly console: %v, want ErrConnRefused", err)
	}
	if _, ok := nw.Host(r.addr(4)); !ok {
		t.Fatal("console not registered after its first dial")
	}
	isp, ok := nw.ISPByName("Toy Realm")
	if !ok {
		t.Fatal("console ISP not registered")
	}
	inside, err := nw.AddHost(netip.MustParseAddr("240.0.0.200"), "", isp)
	if err != nil {
		t.Fatal(err)
	}
	c, err = inside.Dial(ctx, r.addr(4), 80)
	if err != nil {
		t.Fatalf("inside dial to ISPOnly console: %v", err)
	}
	if got, want := readBanner(t, c), "BANNER 240.0.0.4\n"; got != want {
		t.Fatalf("console banner = %q, want %q", got, want)
	}
	if got := r.builds.Load(); got != 1 {
		t.Fatalf("console built %d times, want 1", got)
	}

	if _, err := src.Dial(ctx, r.addr(9), 80); !errors.Is(err, ErrHostUnreach) {
		t.Fatalf("dial outside the realm: %v, want ErrHostUnreach", err)
	}
}

// TestRealmConcurrentDialSingleFlight: concurrent first dials to a
// console all connect, and the console is built once.
func TestRealmConcurrentDialSingleFlight(t *testing.T) {
	nw, r, src := newRealmNet(t, &toyRealm{n: 1, console: 1, vis: Public})
	defer nw.Close()

	const dialers = 16
	var wg sync.WaitGroup
	errs := make(chan error, dialers)
	for i := 0; i < dialers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := src.Dial(context.Background(), r.addr(1), 80)
			if err != nil {
				errs <- err
				return
			}
			c.Close()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent dial: %v", err)
	}
	if got := r.builds.Load(); got != 1 {
		t.Fatalf("console built %d times under %d concurrent dialers, want 1", got, dialers)
	}
}

// TestRealmHostNotDialableMidMaterialize dials a console while its build
// has registered the host but not yet bound its port. Every dial to the
// console must wait for the one build and connect; none may see the
// half-wired host and be refused. A sibling banner address is no part of
// the build and answers while it is parked.
func TestRealmHostNotDialableMidMaterialize(t *testing.T) {
	nw, r, src := newRealmNet(t, &toyRealm{
		n: 2, console: 1, vis: Public,
		added: make(chan struct{}), release: make(chan struct{}),
	})
	defer nw.Close()
	dial := func(dst netip.Addr) <-chan error {
		done := make(chan error, 1)
		go func() {
			c, err := src.Dial(context.Background(), dst, 80)
			if err == nil {
				_, err = bufio.NewReader(c).ReadString('\n')
				c.Close()
			}
			done <- err
		}()
		return done
	}

	release := sync.OnceFunc(func() { close(r.release) })
	defer release() // a failed check must not leave the builder parked

	dials := []<-chan error{dial(r.addr(1))}
	<-r.added
	if err := <-dial(r.addr(2)); err != nil {
		t.Fatalf("sibling dial mid-build: %v", err)
	}
	for i := 0; i < 8; i++ {
		dials = append(dials, dial(r.addr(1)))
	}
	for i, done := range dials {
		select {
		case err := <-done:
			t.Fatalf("dial %d returned mid-build: %v", i, err)
		case <-time.After(10 * time.Millisecond):
		}
	}
	release()
	for i, done := range dials {
		if err := <-done; err != nil {
			t.Errorf("dial %d: %v", i, err)
		}
	}
	if got := r.builds.Load(); got != 1 {
		t.Fatalf("console built %d times under %d concurrent dialers, want 1", got, len(dials))
	}
}

func TestRealmResolveWithoutMaterializing(t *testing.T) {
	nw, r, _ := newRealmNet(t, &toyRealm{n: 4, console: 2})
	defer nw.Close()

	addr, err := nw.Resolve("lazy-2.realm.test")
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if addr != r.addr(2) {
		t.Fatalf("Resolve = %s, want %s", addr, r.addr(2))
	}
	name, ok := nw.ReverseLookup(r.addr(2))
	if !ok || name != "lazy-2.realm.test" {
		t.Fatalf("ReverseLookup = %q,%v", name, ok)
	}
	if got := r.builds.Load(); got != 0 {
		t.Fatalf("DNS lookups built the console %d times; want 0", got)
	}
	if _, err := nw.Resolve("nonexistent.realm.test"); err == nil {
		t.Fatal("Resolve of unknown realm name succeeded")
	}
}

func TestRealmAddrsMergedAndSorted(t *testing.T) {
	nw, r, src := newRealmNet(t, &toyRealm{n: 3, console: 2})
	defer nw.Close()

	addrs := nw.Addrs()
	want := []netip.Addr{
		netip.MustParseAddr("198.51.100.1"),
		r.addr(1), r.addr(2), r.addr(3),
	}
	if len(addrs) != len(want) {
		t.Fatalf("Addrs = %v, want %v", addrs, want)
	}
	for i := range want {
		if addrs[i] != want[i] {
			t.Fatalf("Addrs[%d] = %s, want %s", i, addrs[i], want[i])
		}
	}
	// Building the console registers it; its address must not repeat.
	c, err := src.Dial(context.Background(), r.addr(2), 80)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if got := nw.Addrs(); len(got) != len(want) {
		t.Fatalf("Addrs after the console build has %d entries, want %d: %v", len(got), len(want), got)
	}
}

// TestRealmRemoveHostStaysRemoved: a removed realm address stays
// unreachable and out of Addrs, whether it was a built console, a
// banner address already dialed, or an address never dialed.
func TestRealmRemoveHostStaysRemoved(t *testing.T) {
	nw, r, src := newRealmNet(t, &toyRealm{n: 4, console: 1})
	defer nw.Close()
	ctx := context.Background()

	for _, i := range []int{1, 2} { // the console, then a banner address
		c, err := src.Dial(ctx, r.addr(i), 80)
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	for _, i := range []int{1, 2, 3} { // 3 was never dialed
		nw.RemoveHost(r.addr(i))
	}
	for _, i := range []int{1, 2, 3} {
		if _, err := src.Dial(ctx, r.addr(i), 80); !errors.Is(err, ErrHostUnreach) {
			t.Fatalf("dial to removed realm address %s: %v, want ErrHostUnreach", r.addr(i), err)
		}
	}
	if got := r.builds.Load(); got != 1 {
		t.Fatalf("console built %d times, want 1: a removed console must not rebuild", got)
	}
	// The removed addresses must also vanish from scan sweeps.
	got := nw.Addrs()
	if len(got) != 2 || got[1] != r.addr(4) {
		t.Fatalf("Addrs = %v, want the probe and %s", got, r.addr(4))
	}
}

// TestServeDirectDispatch: a dial runs the port's handler on the server
// end of a fresh pipe addressed src → dst:port, and unbinding the port
// refuses later dials.
func TestServeDirectDispatch(t *testing.T) {
	nw := New(nil)
	defer nw.Close()
	srv, err := nw.AddHost(netip.MustParseAddr("203.0.113.1"), "direct.test", nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := nw.AddHost(netip.MustParseAddr("203.0.113.2"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var local, remote net.Addr
	var mu sync.Mutex
	unbind, err := srv.Serve(8080, Public, HandlerFunc(func(conn net.Conn) {
		mu.Lock()
		local, remote = conn.LocalAddr(), conn.RemoteAddr()
		mu.Unlock()
		io.WriteString(conn, "direct\n")
		conn.Close()
	}))
	if err != nil {
		t.Fatal(err)
	}
	c, err := src.Dial(context.Background(), srv.Addr(), 8080)
	if err != nil {
		t.Fatal(err)
	}
	if got := readBanner(t, c); got != "direct\n" {
		t.Fatalf("banner = %q", got)
	}
	mu.Lock()
	from, to := remote, local
	mu.Unlock()
	if AddrOf(from) != src.Addr() || to.String() != "203.0.113.1:8080" {
		t.Fatalf("handler conn %v -> %v", from, to)
	}
	if _, err := srv.Serve(8080, Public, HandlerFunc(func(net.Conn) {})); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("second bind err = %v, want ErrAddrInUse", err)
	}
	unbind()
	if _, err := src.Dial(context.Background(), srv.Addr(), 8080); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("dial after unbind err = %v, want ErrConnRefused", err)
	}
}
