package netsim

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"filtermap/internal/engine"
	"filtermap/internal/simclock"
)

// This file implements seeded, fully deterministic fault injection for
// the simulated Internet: the failure modes real measurement runs face
// (§6's limitations — flaky vantages, middleboxes that mangle or
// truncate responses, intermittently dead links) expressed as per-host
// and per-link rules over the dial path.
//
// Determinism is the design constraint. Every fault decision is a pure
// function of (plan seed, rule index, src, dst, port, hostname, attempt
// number): no occurrence counters, no shared mutable state, no wall
// clock. Two runs with the same seed — at any worker count, in any
// scheduling order — inject byte-identical failure sequences. The
// attempt number travels in the context (engine.WithAttempt, stamped by
// the engine's retry loop), so a rule can fail a dial's first N attempts
// and then let the retry succeed, deterministically.

// Fault errors, alongside the kernel-style dial errors in netsim.go.
var (
	// ErrConnTimeout reports an injected connect timeout. It implements
	// net.Error with Timeout() == true.
	ErrConnTimeout net.Error = &timeoutError{"netsim: connection timed out"}
	// ErrConnReset reports an injected mid-stream connection reset.
	ErrConnReset = fmt.Errorf("netsim: connection reset by peer")
	// ErrLinkFlap reports a dial attempted during a down window of a
	// flapping link.
	ErrLinkFlap = fmt.Errorf("netsim: link down (vantage flapping)")
)

// timeoutError is a net.Error whose Timeout() is true.
type timeoutError struct{ msg string }

func (e *timeoutError) Error() string   { return e.msg }
func (e *timeoutError) Timeout() bool   { return true }
func (e *timeoutError) Temporary() bool { return true }

// FaultKind enumerates the injectable failure modes.
type FaultKind string

const (
	// FaultConnectTimeout fails the dial with ErrConnTimeout.
	FaultConnectTimeout FaultKind = "connect-timeout"
	// FaultReset lets AfterBytes response bytes through, then fails every
	// further read with ErrConnReset (a mid-body RST).
	FaultReset FaultKind = "reset"
	// FaultTruncate lets AfterBytes response bytes through, then reports
	// a clean EOF — a truncated banner or body.
	FaultTruncate FaultKind = "truncate"
	// FaultGarble XORs response bytes after AfterBytes with a
	// deterministic keystream — a middlebox mangling the wire.
	FaultGarble FaultKind = "garble"
	// FaultHTTP5xx terminates the connection at a synthetic intermediary
	// that answers any request with 503 Service Unavailable.
	FaultHTTP5xx FaultKind = "http-5xx"
	// FaultSlowDrip delays the dial by Delay (a latency spike), then lets
	// it proceed normally.
	FaultSlowDrip FaultKind = "slow-drip"
	// FaultFlap fails dials with ErrLinkFlap during recurring down
	// windows of the simulated clock: every Period, the link is down for
	// the first Down of it (windows are anchored at simclock.Epoch).
	FaultFlap FaultKind = "flap"
)

// FaultRule is one fault-injection rule. The zero-valued matcher fields
// (Dst, Port, Hostname) match every dial; set them to scope the rule to
// a destination, a service port, or a name.
type FaultRule struct {
	// Kind selects the failure mode.
	Kind FaultKind

	// Dst scopes the rule to dials whose destination falls inside the
	// prefix (the zero prefix matches everything).
	Dst netip.Prefix
	// Port scopes the rule to one destination port (0 matches all).
	Port uint16
	// Hostname scopes the rule to dials whose target name contains the
	// substring ("" matches all, including IP-literal dials).
	Hostname string

	// Probability is the chance the rule fires for a matched dial, in
	// (0, 1]. The roll is a pure hash of the plan seed, the rule index
	// and the dial key — never random at run time. A rule with
	// Probability 0 is disabled, except FaultFlap, whose windows apply to
	// every matched dial when Probability is 0.
	Probability float64

	// Sticky makes the roll ignore the attempt number: an afflicted dial
	// key fails on every attempt (a persistently dead target). Without
	// Sticky (and without FirstAttempts) each attempt rolls
	// independently — a transient fault retries can recover from.
	Sticky bool
	// FirstAttempts, when > 0, makes an afflicted dial key fail its
	// first FirstAttempts attempts and succeed afterwards — the shape
	// that exercises the retry machinery end to end. Implies the sticky
	// roll (the affliction is per key, the recovery per attempt).
	FirstAttempts int

	// AfterBytes is the number of response bytes let through before a
	// reset/truncate/garble fault engages.
	AfterBytes int
	// Delay is the slow-drip latency spike.
	Delay time.Duration
	// Period and Down define flap windows: within every Period since
	// simclock.Epoch, the link is down for the first Down.
	Period time.Duration
	Down   time.Duration
}

// matches reports whether the rule applies to the dial at all.
func (r *FaultRule) matches(info DialInfo) bool {
	if r.Dst.IsValid() && !r.Dst.Contains(info.Dst) {
		return false
	}
	if r.Port != 0 && r.Port != info.Port {
		return false
	}
	if r.Hostname != "" && !strings.Contains(info.Hostname, r.Hostname) {
		return false
	}
	return true
}

// FaultPlan is a seeded set of fault rules. Install it with
// Network.SetFaultPlan; the same seed yields the same failure sequence
// at any worker count. Rules are evaluated in order and the first rule
// that matches and fires decides the dial's fault.
type FaultPlan struct {
	Seed  uint64
	Rules []FaultRule
}

// roll hashes the dial key for one rule into [0, 1). attempt < 0 keys
// the sticky (per-dial-key) roll. The hash is FNV-64a over the key
// "seed|rule|src|dst|port|hostname|attempt" in the bytes fmt's %d and %s
// print, built on the stack: a dial under a plan rolls once per
// matching rule and allocates for none of them.
func (p *FaultPlan) roll(ruleIdx int, info DialInfo, attempt int) (uint64, float64) {
	var key [128]byte
	b := strconv.AppendUint(key[:0], p.Seed, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(ruleIdx), 10)
	b = append(b, '|')
	b = appendAddrString(b, info.Src)
	b = append(b, '|')
	b = appendAddrString(b, info.Dst)
	b = append(b, '|')
	b = strconv.AppendUint(b, uint64(info.Port), 10)
	b = append(b, '|')
	b = append(b, info.Hostname...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(attempt), 10)
	sum := uint64(fnvOffset64)
	for _, c := range b {
		sum ^= uint64(c)
		sum *= fnvPrime64
	}
	return sum, float64(sum%1000000) / 1000000.0
}

// The FNV-64a parameters, as hash/fnv uses them.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// appendAddrString appends a.String() to b. AppendTo appends nothing
// for the zero Addr, which String prints as "invalid IP".
func appendAddrString(b []byte, a netip.Addr) []byte {
	if !a.IsValid() {
		return append(b, "invalid IP"...)
	}
	return a.AppendTo(b)
}

// evaluate returns the first firing rule for the dial, plus the hash
// seeding any byte-level fault, or ok == false when no fault applies.
func (p *FaultPlan) evaluate(info DialInfo, attempt int, now time.Time) (FaultRule, uint64, bool) {
	if p == nil {
		return FaultRule{}, 0, false
	}
	for i := range p.Rules {
		r := p.Rules[i]
		if !r.matches(info) {
			continue
		}
		if r.Kind == FaultFlap {
			if !inDownWindow(now, r.Period, r.Down) {
				continue
			}
			if r.Probability > 0 {
				if _, frac := p.roll(i, info, -1); frac >= r.Probability {
					continue
				}
			}
			return r, 0, true
		}
		if r.Probability <= 0 {
			continue
		}
		rollAttempt := attempt
		if r.Sticky || r.FirstAttempts > 0 {
			rollAttempt = -1
		}
		hash, frac := p.roll(i, info, rollAttempt)
		if frac >= r.Probability {
			continue
		}
		if r.FirstAttempts > 0 && attempt > r.FirstAttempts {
			// The affliction has run its course; this attempt succeeds.
			continue
		}
		return r, hash, true
	}
	return FaultRule{}, 0, false
}

// inDownWindow reports whether now falls in a flap down window.
func inDownWindow(now time.Time, period, down time.Duration) bool {
	if period <= 0 || down <= 0 {
		return false
	}
	off := now.Sub(simclock.Epoch) % period
	if off < 0 {
		off += period
	}
	return off < down
}

// SetFaultPlan installs (or, with nil, removes) the network's fault
// plan. The plan must not be mutated after installation.
func (n *Network) SetFaultPlan(p *FaultPlan) {
	n.mu.Lock()
	rt := n.editRoute()
	rt.faults = p
	n.route.Store(rt)
	n.mu.Unlock()
}

// injectFault applies plan, the fault plan of the route the dial read,
// to one dial before routing. It returns (nil, nil, wrap) to let the
// dial proceed — with wrap non-nil when the established connection must
// be wrapped in a byte-level fault — or a terminal (conn, err) pair for
// faults that decide the dial outright.
func (n *Network) injectFault(ctx context.Context, plan *FaultPlan, info DialInfo) (net.Conn, error, func(net.Conn) net.Conn) {
	if plan == nil {
		return nil, nil, nil
	}
	rule, hash, ok := plan.evaluate(info, engine.AttemptFromContext(ctx), n.clock.Now())
	if !ok {
		return nil, nil, nil
	}
	switch rule.Kind {
	case FaultConnectTimeout:
		return nil, fmt.Errorf("%w: %s:%d", ErrConnTimeout, info.Dst, info.Port), nil
	case FaultFlap:
		return nil, fmt.Errorf("%w: %s -> %s", ErrLinkFlap, info.Src, info.Dst), nil
	case FaultSlowDrip:
		if rule.Delay > 0 {
			t := time.NewTimer(rule.Delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err(), nil
			}
		}
		return nil, nil, nil
	case FaultHTTP5xx:
		p := newConnPair(
			simAddr{addr: info.Src, port: 0},
			simAddr{addr: info.Dst, port: info.Port},
		)
		go serveUnavailable(&p.b)
		return &p.a, nil, nil
	case FaultReset, FaultTruncate, FaultGarble:
		r := rule
		return nil, nil, func(c net.Conn) net.Conn {
			return &faultConn{Conn: c, kind: r.Kind, remaining: r.AfterBytes, after: r.AfterBytes, seed: hash}
		}
	default:
		return nil, nil, nil
	}
}

// serveUnavailable answers one intercepted connection with a synthetic
// 503 — an overloaded intermediary with no product evidence. A first
// flight that is not an HTTP request head (a TLS ClientHello, a DNS
// query) gets the 503 immediately: waiting for a CRLF-terminated head
// that will never arrive would wedge both ends.
func serveUnavailable(conn net.Conn) {
	defer conn.Close()
	// Consume the request head so the client's write completes. An HTTP
	// request line starts with an uppercase method; anything else is a
	// binary protocol whose head has no terminating blank line.
	br := bufio.NewReader(io.LimitReader(conn, 64<<10))
	if first, err := br.Peek(1); err == nil && first[0] >= 'A' && first[0] <= 'Z' {
		for {
			line, err := br.ReadString('\n')
			if err != nil || line == "\r\n" || line == "\n" {
				break
			}
		}
	}
	body := "service unavailable\n"
	fmt.Fprintf(conn, "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s", len(body), body)
}

// faultConn wraps a connection's read side with a byte-level fault:
// reset or truncate after N bytes, or garbling from N bytes on. The
// write side (the request) is untouched.
type faultConn struct {
	net.Conn
	kind      FaultKind
	remaining int // passthrough budget for reset/truncate
	after     int // garble start offset
	offset    int
	seed      uint64
}

// Read implements net.Conn.
func (c *faultConn) Read(p []byte) (int, error) {
	switch c.kind {
	case FaultReset:
		if c.remaining <= 0 {
			return 0, fmt.Errorf("%w (after %d bytes)", ErrConnReset, c.after)
		}
		if len(p) > c.remaining {
			p = p[:c.remaining]
		}
		n, err := c.Conn.Read(p)
		c.remaining -= n
		return n, err
	case FaultTruncate:
		if c.remaining <= 0 {
			return 0, io.EOF
		}
		if len(p) > c.remaining {
			p = p[:c.remaining]
		}
		n, err := c.Conn.Read(p)
		c.remaining -= n
		return n, err
	case FaultGarble:
		n, err := c.Conn.Read(p)
		for i := 0; i < n; i++ {
			if c.offset >= c.after {
				p[i] ^= garbleByte(c.seed, c.offset)
			}
			c.offset++
		}
		return n, err
	default:
		return c.Conn.Read(p)
	}
}

// CloseWrite delegates half-close when the underlying connection
// supports it (netsim's pipes do).
func (c *faultConn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

// garbleByte derives a deterministic keystream byte for an absolute
// stream offset (splitmix64 finalizer).
func garbleByte(seed uint64, offset int) byte {
	x := seed + 0x9e3779b97f4a7c15*uint64(offset+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	b := byte(x)
	if b == 0 {
		b = 0xAA // XOR with 0 would pass the byte through unmangled
	}
	return b
}

// FaultProfiles lists the built-in named profiles, sorted.
func FaultProfiles() []string { return []string{"flaky", "flap", "mangler", "mixed"} }

// DefaultFaultProfile is the profile -chaos selects when none is named.
const DefaultFaultProfile = "mixed"

// NewFaultProfile builds a named fault plan around a seed:
//
//   - "flaky": connect timeouts (mostly recoverable by retry), sporadic
//     mid-body resets and latency spikes,
//   - "mangler": truncated, garbled and 5xx-substituted responses,
//   - "flap": hourly down windows on every link plus rare timeouts,
//   - "mixed": a moderate dose of everything — the default for -chaos.
func NewFaultProfile(name string, seed uint64) (*FaultPlan, error) {
	switch name {
	case "flaky":
		return &FaultPlan{Seed: seed, Rules: []FaultRule{
			{Kind: FaultConnectTimeout, Probability: 0.30, FirstAttempts: 2},
			{Kind: FaultConnectTimeout, Probability: 0.05, Sticky: true},
			{Kind: FaultReset, Probability: 0.08, Sticky: true, AfterBytes: 48},
			{Kind: FaultSlowDrip, Probability: 0.15, Delay: 2 * time.Millisecond},
		}}, nil
	case "mangler":
		return &FaultPlan{Seed: seed, Rules: []FaultRule{
			{Kind: FaultTruncate, Probability: 0.12, Sticky: true, AfterBytes: 90},
			{Kind: FaultGarble, Probability: 0.12, Sticky: true, AfterBytes: 40},
			{Kind: FaultHTTP5xx, Probability: 0.10, Sticky: true},
		}}, nil
	case "flap":
		return &FaultPlan{Seed: seed, Rules: []FaultRule{
			{Kind: FaultFlap, Period: 4 * time.Hour, Down: time.Hour},
			{Kind: FaultConnectTimeout, Probability: 0.05},
		}}, nil
	case "mixed", "":
		return &FaultPlan{Seed: seed, Rules: []FaultRule{
			{Kind: FaultConnectTimeout, Probability: 0.25, FirstAttempts: 2},
			{Kind: FaultConnectTimeout, Probability: 0.05, Sticky: true},
			{Kind: FaultReset, Probability: 0.06, Sticky: true, AfterBytes: 64},
			{Kind: FaultTruncate, Probability: 0.05, Sticky: true, AfterBytes: 80},
			{Kind: FaultGarble, Probability: 0.05, Sticky: true, AfterBytes: 48},
			{Kind: FaultHTTP5xx, Probability: 0.06, Sticky: true},
			{Kind: FaultSlowDrip, Probability: 0.10, Delay: 2 * time.Millisecond},
			{Kind: FaultFlap, Period: 6 * time.Hour, Down: time.Hour, Probability: 0.35},
		}}, nil
	default:
		return nil, fmt.Errorf("netsim: unknown fault profile %q (have %s)", name, strings.Join(FaultProfiles(), ", "))
	}
}
