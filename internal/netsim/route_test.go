package netsim

import (
	"context"
	"errors"
	"io"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// cannedRealm owns 240.0.1.1 .. 240.0.1.n, each named "canned.test":
// port 80 of each address answers with cannedAnswer, a Response, and
// every other port is closed.
type cannedRealm struct{ n int }

var cannedAnswer Handler = Response("HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok")

func (r cannedRealm) addr(i int) netip.Addr { return netip.AddrFrom4([4]byte{240, 0, 1, byte(i)}) }

func (r cannedRealm) Contains(a netip.Addr) bool {
	if !a.Is4() {
		return false
	}
	b := a.As4()
	return b[0] == 240 && b[1] == 0 && b[2] == 1 && int(b[3]) >= 1 && int(b[3]) <= r.n
}

func (r cannedRealm) Addrs() []netip.Addr {
	out := make([]netip.Addr, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.addr(i))
	}
	return out
}

func (r cannedRealm) Resolve(string) (netip.Addr, bool) { return netip.Addr{}, false }

func (r cannedRealm) ReverseLookup(a netip.Addr) (string, bool) {
	return "canned.test", r.Contains(a)
}

func (r cannedRealm) Port(a netip.Addr, port uint16) (*Host, Handler, bool) {
	if !r.Contains(a) {
		return nil, nil, false
	}
	if port == 80 {
		return nil, cannedAnswer, true
	}
	return nil, nil, true
}

// newCannedNet returns a network with a cannedRealm of n addresses, a
// source host and a registered host serving cannedAnswer on port 80.
func newCannedNet(t *testing.T, n int) (nw *Network, src, dst *Host) {
	t.Helper()
	nw = newTestNet(t)
	nw.SetRealm(cannedRealm{n: n})
	src, err := nw.AddHost(mustAddr(t, "198.51.100.1"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	dst, err = nw.AddHost(mustAddr(t, "192.0.2.1"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Serve(80, Public, cannedAnswer); err != nil {
		t.Fatal(err)
	}
	return nw, src, dst
}

// TestDialCancelledContext holds the DialContext contract on each kind
// of route: a dial with a cancelled context fails with context.Canceled,
// whether it would reach a registered port, a realm Response port or a
// realm closed port.
func TestDialCancelledContext(t *testing.T) {
	_, src, dst := newCannedNet(t, 1)
	realm := cannedRealm{}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name string
		addr netip.Addr
		port uint16
		live error // the dial's outcome with a live context
	}{
		{"registered port", dst.Addr(), 80, nil},
		{"realm Response port", realm.addr(1), 80, nil},
		{"realm closed port", realm.addr(1), 81, ErrConnRefused},
	} {
		conn, err := src.Dial(context.Background(), c.addr, c.port)
		if !errors.Is(err, c.live) {
			t.Fatalf("%s: live dial err = %v, want %v", c.name, err, c.live)
		}
		if conn != nil {
			conn.Close()
		}
		conn, err = src.Dial(cancelled, c.addr, c.port)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: dial with a cancelled context: err = %v, want context.Canceled", c.name, err)
		}
		if conn != nil {
			conn.Close()
		}
	}
}

// TestDialParkedReturnsOnCancel: a dial waiting out SetDialLatency or a
// slow-drip fault returns context.Canceled as soon as its context is
// cancelled, not when the wait ends.
func TestDialParkedReturnsOnCancel(t *testing.T) {
	for _, c := range []struct {
		name string
		park func(*Network)
	}{
		{"dial latency", func(n *Network) { n.SetDialLatency(time.Hour) }},
		{"slow drip", func(n *Network) {
			n.SetFaultPlan(&FaultPlan{Rules: []FaultRule{{Kind: FaultSlowDrip, Probability: 1, Delay: time.Hour}}})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			nw, src, _ := newCannedNet(t, 1)
			c.park(nw)
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				conn, err := src.Dial(ctx, cannedRealm{}.addr(1), 80)
				if conn != nil {
					conn.Close()
				}
				done <- err
			}()
			time.AfterFunc(20*time.Millisecond, cancel)
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("parked dial returned %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("parked dial did not return within 5s of its cancel")
			}
		})
	}
}

// TestRouteConcurrentWriters races dials and reverse lookups, to realm
// and to registered addresses, against every writer of the published
// route: SetRealm, RemoveHost, SetDialLatency, SetFaultPlan and Close. A
// dial or lookup that starts after RemoveHost returned never reaches the
// removed address, and a dial that starts after Close returned never
// connects. Run it under -race -count=10.
func TestRouteConcurrentWriters(t *testing.T) {
	nw, src, dst := newCannedNet(t, 8)
	realm := cannedRealm{n: 8}
	other, err := nw.AddHost(mustAddr(t, "192.0.2.2"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Serve(80, Public, cannedAnswer); err != nil {
		t.Fatal(err)
	}
	targets := append(realm.Addrs(), dst.Addr(), other.Addr())
	gone := map[netip.Addr]bool{realm.addr(1): true, dst.Addr(): true}

	var removed, closed atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Keep dialing until 50 dials have started after Close.
			for i, afterClose := g, 0; afterClose < 50; i++ {
				wasRemoved, wasClosed := removed.Load(), closed.Load()
				if wasClosed {
					afterClose++
				}
				to := targets[i%len(targets)]
				if name, ok := nw.ReverseLookup(to); ok && wasRemoved && gone[to] {
					t.Errorf("ReverseLookup(%s) = %q after RemoveHost returned", to, name)
				}
				conn, err := src.Dial(context.Background(), to, 80)
				if err != nil {
					continue
				}
				io.Copy(io.Discard, conn) //nolint:errcheck // only the connect matters
				conn.Close()
				switch {
				case wasClosed:
					t.Errorf("dial to %s connected after Close returned", to)
				case wasRemoved && gone[to]:
					t.Errorf("dial to %s connected after RemoveHost returned", to)
				}
			}
		}()
	}

	plan := &FaultPlan{Seed: 1, Rules: []FaultRule{{Kind: FaultConnectTimeout, Probability: 0.2}}}
	for i := 0; i < 200; i++ {
		nw.SetDialLatency(time.Duration(i%2) * time.Microsecond)
		if i%3 == 0 {
			nw.SetFaultPlan(plan)
		} else {
			nw.SetFaultPlan(nil)
		}
		switch {
		case i < 100:
			// Re-attaching the realm clears its tombstones, so it is
			// only re-attached before the removals.
			nw.SetRealm(realm)
		case i == 100:
			for a := range gone {
				nw.RemoveHost(a)
			}
			removed.Store(true)
		}
		runtime.Gosched() // let the dialers interleave with the writes
	}
	nw.Close()
	closed.Store(true)
	wg.Wait()

	for _, a := range nw.Addrs() {
		if gone[a] {
			t.Errorf("removed address %s still listed by Addrs", a)
		}
	}
}
