package netsim

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"filtermap/internal/engine"
	"filtermap/internal/simclock"
)

// faultPair builds a network with an echo server and a client host and
// installs the given plan.
func faultPair(t *testing.T, plan *FaultPlan) (*Network, *Host, *Host) {
	t.Helper()
	n := newTestNet(t)
	srv, _ := n.AddHost(mustAddr(t, "192.0.2.1"), "server.test", nil)
	cli, _ := n.AddHost(mustAddr(t, "192.0.2.2"), "client.test", nil)
	serve(t, srv, 80, func(c net.Conn) {
		defer c.Close()
		io.Copy(c, c) //nolint:errcheck // echo until close
	})
	n.SetFaultPlan(plan)
	return n, srv, cli
}

func TestFaultConnectTimeout(t *testing.T) {
	plan := &FaultPlan{Seed: 1, Rules: []FaultRule{
		{Kind: FaultConnectTimeout, Probability: 1, Sticky: true},
	}}
	_, srv, cli := faultPair(t, plan)
	_, err := cli.Dial(context.Background(), srv.Addr(), 80)
	if !errors.Is(err, ErrConnTimeout) {
		t.Fatalf("err = %v, want ErrConnTimeout", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("injected timeout should satisfy net.Error with Timeout() true, got %v", err)
	}
}

func TestFaultFirstAttemptsRecover(t *testing.T) {
	plan := &FaultPlan{Seed: 7, Rules: []FaultRule{
		{Kind: FaultConnectTimeout, Probability: 1, FirstAttempts: 2},
	}}
	_, srv, cli := faultPair(t, plan)
	for attempt := 1; attempt <= 3; attempt++ {
		ctx := engine.WithAttempt(context.Background(), attempt)
		conn, err := cli.Dial(ctx, srv.Addr(), 80)
		if attempt <= 2 {
			if !errors.Is(err, ErrConnTimeout) {
				t.Fatalf("attempt %d: err = %v, want ErrConnTimeout", attempt, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("attempt %d should recover, got %v", attempt, err)
		}
		conn.Close()
	}
}

func TestFaultResetMidBody(t *testing.T) {
	plan := &FaultPlan{Seed: 3, Rules: []FaultRule{
		{Kind: FaultReset, Probability: 1, Sticky: true, AfterBytes: 4},
	}}
	_, srv, cli := faultPair(t, plan)
	conn, err := cli.Dial(context.Background(), srv.Addr(), 80)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("0123456789")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatalf("first 4 bytes should pass: %v", err)
	}
	if string(buf) != "0123" {
		t.Fatalf("passthrough bytes = %q, want 0123", buf)
	}
	if _, err := conn.Read(buf); !errors.Is(err, ErrConnReset) {
		t.Fatalf("read past AfterBytes err = %v, want ErrConnReset", err)
	}
}

func TestFaultTruncate(t *testing.T) {
	plan := &FaultPlan{Seed: 3, Rules: []FaultRule{
		{Kind: FaultTruncate, Probability: 1, Sticky: true, AfterBytes: 6},
	}}
	_, srv, cli := faultPair(t, plan)
	conn, err := cli.Dial(context.Background(), srv.Addr(), 80)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("0123456789")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("ReadAll after truncation should see clean EOF, got %v", err)
	}
	if string(got) != "012345" {
		t.Fatalf("truncated stream = %q, want 012345", got)
	}
}

func TestFaultGarbleDeterministicAndChunkingIndependent(t *testing.T) {
	plan := &FaultPlan{Seed: 9, Rules: []FaultRule{
		{Kind: FaultGarble, Probability: 1, Sticky: true, AfterBytes: 3},
	}}
	_, srv, cli := faultPair(t, plan)
	payload := "the quick brown fox jumps over the lazy dog"

	fetch := func(chunk int) string {
		conn, err := cli.Dial(context.Background(), srv.Addr(), 80)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(payload)); err != nil {
			t.Fatalf("Write: %v", err)
		}
		var sb strings.Builder
		buf := make([]byte, chunk)
		for sb.Len() < len(payload) {
			m, err := conn.Read(buf)
			sb.Write(buf[:m])
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
		}
		return sb.String()
	}

	whole := fetch(len(payload))
	bytewise := fetch(1)
	if whole != bytewise {
		t.Fatalf("garbled stream depends on read chunking:\n  whole:    %q\n  bytewise: %q", whole, bytewise)
	}
	if whole[:3] != payload[:3] {
		t.Fatalf("first AfterBytes must pass untouched, got %q", whole[:3])
	}
	if whole[3:] == payload[3:] {
		t.Fatal("bytes past AfterBytes should be garbled")
	}
}

func TestFaultHTTP5xx(t *testing.T) {
	plan := &FaultPlan{Seed: 5, Rules: []FaultRule{
		{Kind: FaultHTTP5xx, Probability: 1, Sticky: true},
	}}
	_, srv, cli := faultPair(t, plan)
	conn, err := cli.Dial(context.Background(), srv.Addr(), 80)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET / HTTP/1.1\r\nHost: server.test\r\n\r\n")
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "service unavailable") {
		t.Fatalf("body = %q", body)
	}
}

func TestFaultFlapWindows(t *testing.T) {
	clock := simclock.NewManual(simclock.Epoch)
	n := New(clock)
	t.Cleanup(n.Close)
	srv, _ := n.AddHost(mustAddr(t, "192.0.2.1"), "server.test", nil)
	cli, _ := n.AddHost(mustAddr(t, "192.0.2.2"), "client.test", nil)
	serve(t, srv, 80, func(c net.Conn) { c.Close() })
	n.SetFaultPlan(&FaultPlan{Seed: 1, Rules: []FaultRule{
		{Kind: FaultFlap, Period: 4 * time.Hour, Down: time.Hour},
	}})

	// At the Epoch the link sits at the start of a down window.
	if _, err := cli.Dial(context.Background(), srv.Addr(), 80); !errors.Is(err, ErrLinkFlap) {
		t.Fatalf("in-window err = %v, want ErrLinkFlap", err)
	}
	// Past the down window the dial goes through.
	clock.Advance(90 * time.Minute)
	if conn, err := cli.Dial(context.Background(), srv.Addr(), 80); err != nil {
		t.Fatalf("out-of-window dial: %v", err)
	} else {
		conn.Close()
	}
	// The next period's window is down again.
	clock.Advance(3 * time.Hour) // now at 4h30m
	if _, err := cli.Dial(context.Background(), srv.Addr(), 80); !errors.Is(err, ErrLinkFlap) {
		t.Fatalf("next-window err = %v, want ErrLinkFlap", err)
	}
}

func TestFaultRuleScoping(t *testing.T) {
	plan := &FaultPlan{Seed: 2, Rules: []FaultRule{
		{Kind: FaultConnectTimeout, Probability: 1, Sticky: true, Dst: mustPrefix(t, "198.51.100.0/24")},
		{Kind: FaultConnectTimeout, Probability: 1, Sticky: true, Port: 443},
		{Kind: FaultConnectTimeout, Probability: 1, Sticky: true, Hostname: "blocked."},
	}}
	n, srv, cli := faultPair(t, plan)
	blocked, _ := n.AddHost(mustAddr(t, "198.51.100.9"), "blocked.test", nil)
	serve(t, blocked, 80, func(c net.Conn) { c.Close() })

	// In-scope dials fail.
	if _, err := cli.Dial(context.Background(), blocked.Addr(), 80); !errors.Is(err, ErrConnTimeout) {
		t.Fatalf("dst-scoped dial err = %v, want ErrConnTimeout", err)
	}
	if _, err := cli.Dial(context.Background(), srv.Addr(), 443); !errors.Is(err, ErrConnTimeout) {
		t.Fatalf("port-scoped dial err = %v, want ErrConnTimeout", err)
	}
	if _, err := cli.DialHost(context.Background(), "blocked.test", 80); !errors.Is(err, ErrConnTimeout) {
		t.Fatalf("hostname-scoped dial err = %v, want ErrConnTimeout", err)
	}
	// The plain echo server on 80 stays out of scope.
	conn, err := cli.Dial(context.Background(), srv.Addr(), 80)
	if err != nil {
		t.Fatalf("out-of-scope dial: %v", err)
	}
	conn.Close()
}

// TestFaultDeterminismAcrossConcurrency pins the core contract: the set
// of dial keys a seeded plan fails is identical whether dials run
// sequentially or across 8 goroutines in arbitrary order.
func TestFaultDeterminismAcrossConcurrency(t *testing.T) {
	plan, err := NewFaultProfile("mixed", 42)
	if err != nil {
		t.Fatalf("NewFaultProfile: %v", err)
	}
	n := newTestNet(t)
	cli, _ := n.AddHost(mustAddr(t, "192.0.2.2"), "client.test", nil)
	const hosts = 40
	addrs := make([]*Host, hosts)
	for i := 0; i < hosts; i++ {
		h, err := n.AddHost(mustAddr(t, fmt.Sprintf("203.0.113.%d", i+1)), fmt.Sprintf("site%02d.test", i), nil)
		if err != nil {
			t.Fatalf("AddHost: %v", err)
		}
		serve(t, h, 80, func(c net.Conn) {
			c.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")) //nolint:errcheck // test server
			c.Close()
		})
		addrs[i] = h
	}
	n.SetFaultPlan(plan)

	// outcome reads one dial's observable result as a comparable string.
	outcome := func(i int) string {
		ctx := engine.WithAttempt(context.Background(), 1)
		conn, err := cli.Dial(ctx, addrs[i].Addr(), 80)
		if err != nil {
			return "dial:" + err.Error()
		}
		defer conn.Close()
		// Real clients (httpwire, the scanner's banner grab) always write a
		// request before reading; the 5xx interceptor depends on that.
		fmt.Fprintf(conn, "GET / HTTP/1.1\r\nHost: site\r\n\r\n") //nolint:errcheck // peer may have closed
		b, rerr := io.ReadAll(conn)
		if rerr != nil {
			return "read:" + rerr.Error()
		}
		return "body:" + string(b)
	}

	sequential := make([]string, hosts)
	for i := range addrs {
		sequential[i] = outcome(i)
	}

	concurrent := make([]string, hosts)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for i := range addrs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			concurrent[i] = outcome(i)
		}(i)
	}
	wg.Wait()

	for i := range sequential {
		if sequential[i] != concurrent[i] {
			t.Errorf("host %d: sequential %q != concurrent %q", i, sequential[i], concurrent[i])
		}
	}

	// A fresh plan with the same seed reproduces the exact sequence; a
	// different seed must not (or the "probability" is no probability).
	n.SetFaultPlan(&FaultPlan{Seed: 42, Rules: plan.Rules})
	same := make([]string, hosts)
	for i := range addrs {
		same[i] = outcome(i)
	}
	n.SetFaultPlan(&FaultPlan{Seed: 43, Rules: plan.Rules})
	diff := 0
	for i := range addrs {
		if outcome(i) != same[i] {
			diff++
		}
	}
	for i := range sequential {
		if sequential[i] != same[i] {
			t.Errorf("host %d: same-seed rerun diverged: %q != %q", i, same[i], sequential[i])
		}
	}
	if diff == 0 {
		t.Error("seed 43 produced identical outcomes to seed 42 across 40 hosts; seed is not feeding the rolls")
	}
}

func TestNewFaultProfileUnknown(t *testing.T) {
	if _, err := NewFaultProfile("bogus", 1); err == nil {
		t.Fatal("unknown profile should error")
	}
	for _, name := range FaultProfiles() {
		if _, err := NewFaultProfile(name, 1); err != nil {
			t.Fatalf("profile %q: %v", name, err)
		}
	}
}

// fmtRoll hashes the fault roll's key as fmt prints it: the bytes roll
// must hash, or every seeded fault decision (and every chaos golden)
// moves.
func fmtRoll(p *FaultPlan, ruleIdx int, info DialInfo, attempt int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s|%s|%d|%s|%d",
		p.Seed, ruleIdx, info.Src, info.Dst, info.Port, info.Hostname, attempt)
	return h.Sum64()
}

// TestFaultRollMatchesFmtKey pins roll's stack-built key to the fmt
// form across seeds, rule indexes, address forms (the zero Addr prints
// "invalid IP", which AppendTo does not), ports, hostnames, a key too
// long for the stack buffer, and sticky and numbered attempts.
func TestFaultRollMatchesFmtKey(t *testing.T) {
	addrs := []netip.Addr{
		{},
		mustAddr(t, "192.0.2.1"),
		mustAddr(t, "240.0.16.17"),
		mustAddr(t, "2001:db8::1"),
		mustAddr(t, "::ffff:192.0.2.1"),
		mustAddr(t, "fe80::1%eth0"),
	}
	hostnames := []string{"", "www.example.com", strings.Repeat("long-label.", 20) + "example"}
	for _, seed := range []uint64{0, 42, math.MaxUint64} {
		p := &FaultPlan{Seed: seed}
		for _, rule := range []int{0, 7, 12} {
			for _, src := range addrs {
				for _, dst := range addrs {
					for _, port := range []uint16{0, 80, 65535} {
						for _, host := range hostnames {
							for _, attempt := range []int{-1, 0, 1, 3} {
								info := DialInfo{Src: src, Dst: dst, Port: port, Hostname: host}
								got, frac := p.roll(rule, info, attempt)
								want := fmtRoll(p, rule, info, attempt)
								if got != want || frac != float64(want%1000000)/1000000.0 {
									t.Fatalf("roll(%d, %+v, %d) = %#x, %v; fmt key hashes to %#x", rule, info, attempt, got, frac, want)
								}
							}
						}
					}
				}
			}
		}
	}
}
