package netsim

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// toyRealm owns 240.0.0.1 .. 240.0.0.N and materializes each host
// with a one-line banner derived from its address. It counts
// Materialize calls so tests can prove single-flight materialization.
type toyRealm struct {
	net   *Network
	n     int
	calls atomic.Int64
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

func (r *toyRealm) Materialize(addr netip.Addr) error {
	r.calls.Add(1)
	name, _ := r.ReverseLookup(addr)
	h, err := r.net.AddHost(addr, name, nil)
	if err != nil {
		return err
	}
	banner := fmt.Sprintf("BANNER %s\n", addr)
	_, err = h.ServeHandler(80, Public, HandlerFunc(func(conn net.Conn, _ DialInfo) {
		defer conn.Close()
		io.WriteString(conn, banner)
	}))
	return err
}

func newRealmNet(t *testing.T, n int) (*Network, *toyRealm, *Host) {
	t.Helper()
	nw := New(nil)
	r := &toyRealm{net: nw, n: n}
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

func TestRealmMaterializeOnDial(t *testing.T) {
	nw, r, src := newRealmNet(t, 4)
	defer nw.Close()

	dst := r.addr(3)
	if _, ok := nw.Host(dst); ok {
		t.Fatal("host materialized before first dial")
	}
	c, err := src.Dial(context.Background(), dst, 80)
	if err != nil {
		t.Fatalf("dial cold realm host: %v", err)
	}
	if got, want := readBanner(t, c), "BANNER 240.0.0.3\n"; got != want {
		t.Fatalf("banner = %q, want %q", got, want)
	}
	if _, ok := nw.Host(dst); !ok {
		t.Fatal("host not registered after dial")
	}
	if got := r.calls.Load(); got != 1 {
		t.Fatalf("Materialize calls = %d, want 1", got)
	}
	// Second dial must not re-materialize.
	c, err = src.Dial(context.Background(), dst, 80)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if got := r.calls.Load(); got != 1 {
		t.Fatalf("Materialize calls after warm dial = %d, want 1", got)
	}
}

func TestRealmConcurrentDialSingleFlight(t *testing.T) {
	nw, r, src := newRealmNet(t, 1)
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
	if got := r.calls.Load(); got != 1 {
		t.Fatalf("Materialize calls = %d, want exactly 1 under %d concurrent dialers", got, dialers)
	}
}

// pairRealm materializes its two addresses together, like a whole-ISP
// materializer, and parks between registering the hosts and binding
// their listeners until release is closed.
type pairRealm struct {
	toyRealm
	added, release chan struct{}
	built          bool
}

func (r *pairRealm) Materialize(netip.Addr) error {
	if r.built {
		return nil
	}
	r.built = true
	var hosts []*Host
	for i := 1; i <= r.n; i++ {
		name, _ := r.ReverseLookup(r.addr(i))
		h, err := r.net.AddHost(r.addr(i), name, nil)
		if err != nil {
			return err
		}
		hosts = append(hosts, h)
	}
	close(r.added)
	<-r.release
	for _, h := range hosts {
		banner := fmt.Sprintf("BANNER %s\n", h.Addr())
		if _, err := h.ServeHandler(80, Public, HandlerFunc(func(conn net.Conn, _ DialInfo) {
			defer conn.Close()
			io.WriteString(conn, banner)
		})); err != nil {
			return err
		}
	}
	return nil
}

// TestRealmHostNotDialableMidMaterialize dials while a materialization
// has registered its hosts but not yet bound their listeners. A second
// dial to the address being built, and one to its sibling, must wait
// for the materialization and connect instead of being refused.
func TestRealmHostNotDialableMidMaterialize(t *testing.T) {
	nw := New(nil)
	defer nw.Close()
	r := &pairRealm{toyRealm: toyRealm{net: nw, n: 2}, added: make(chan struct{}), release: make(chan struct{})}
	nw.SetRealm(r)
	src, err := nw.AddHost(netip.MustParseAddr("198.51.100.1"), "probe.test", nil)
	if err != nil {
		t.Fatal(err)
	}
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

	first := dial(r.addr(1))
	<-r.added
	same, sibling := dial(r.addr(1)), dial(r.addr(2))
	select {
	case err := <-same:
		t.Fatalf("dial to the address being materialized returned mid-materialization: %v", err)
	case err := <-sibling:
		t.Fatalf("dial to a sibling returned mid-materialization: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	for _, d := range []struct {
		name string
		done <-chan error
	}{{"first", first}, {"same", same}, {"sibling", sibling}} {
		if err := <-d.done; err != nil {
			t.Errorf("%s dial: %v", d.name, err)
		}
	}
}

func TestRealmResolveWithoutMaterializing(t *testing.T) {
	nw, r, _ := newRealmNet(t, 4)
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
	if got := r.calls.Load(); got != 0 {
		t.Fatalf("DNS lookups materialized %d hosts; want 0", got)
	}
	if _, err := nw.Resolve("nonexistent.realm.test"); err == nil {
		t.Fatal("Resolve of unknown realm name succeeded")
	}
}

func TestRealmAddrsMergedAndSorted(t *testing.T) {
	nw, r, src := newRealmNet(t, 3)
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
	// Materializing one host must not duplicate its address.
	c, err := src.Dial(context.Background(), r.addr(2), 80)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if got := nw.Addrs(); len(got) != len(want) {
		t.Fatalf("Addrs after materialization has %d entries, want %d: %v", len(got), len(want), got)
	}
}

func TestRealmRemoveHostStaysRemoved(t *testing.T) {
	nw, r, src := newRealmNet(t, 2)
	defer nw.Close()

	dst := r.addr(1)
	c, err := src.Dial(context.Background(), dst, 80)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	nw.RemoveHost(dst)

	if _, err := src.Dial(context.Background(), dst, 80); err == nil {
		t.Fatal("dial to removed realm host succeeded")
	}
	if got := r.calls.Load(); got != 1 {
		t.Fatalf("removed host re-materialized: %d calls", got)
	}
	// The removed address must also vanish from scan sweeps.
	for _, a := range nw.Addrs() {
		if a == dst {
			t.Fatalf("Addrs still lists removed realm host %s", a)
		}
	}
}

func TestServeHandlerDirectDispatch(t *testing.T) {
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
	var gotInfo DialInfo
	var mu sync.Mutex
	l, err := srv.ServeHandler(8080, Public, HandlerFunc(func(conn net.Conn, info DialInfo) {
		mu.Lock()
		gotInfo = info
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
	info := gotInfo
	mu.Unlock()
	if info.Src != src.Addr() || info.Dst != srv.Addr() || info.Port != 8080 {
		t.Fatalf("handler DialInfo = %+v", info)
	}
	l.Close()
	if _, err := src.Dial(context.Background(), srv.Addr(), 8080); err == nil {
		t.Fatal("dial after Close succeeded")
	}
}
