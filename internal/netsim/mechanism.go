package netsim

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"

	"filtermap/internal/mechanism"
)

// This file adds the off-path censorship mechanisms to the simulated
// Internet: DNS poisoning at name-resolution time, TCP RST injection
// keyed on the HTTP Host header (or dialed hostname), and SNI-based TLS
// filtering keyed on the ClientHello's server_name. The in-path HTTP
// Interceptor of netsim.go terminates connections and answers them; the
// mechanisms here are injectors — the connection is established, bytes
// flow, and the ISP's middlebox decides mid-stream to forge answers,
// reset, or blackhole. Each decision carries the packet-level quirks
// (RST TTL/window, sidedness, sinkhole address and TTL) that make the
// mechanism attributable to a product.

// DNSAction is a resolver-path decision for one query.
type DNSAction int

const (
	// DNSClean resolves truthfully.
	DNSClean DNSAction = iota
	// DNSSinkhole forges an A record toward a sinkhole address.
	DNSSinkhole
	// DNSNXDomain injects a name-error answer.
	DNSNXDomain
)

// DNSVerdict is one DNS filtering decision of the in-path resolver,
// which answers with an address alone (the wire resolver of
// internal/world forges the record's TTL quirk from the signature).
type DNSVerdict struct {
	Action DNSAction
	// Addr is the forged answer (sinkhole only).
	Addr netip.Addr
}

// DNSFilter decides the resolver-path behaviour for a query from src.
type DNSFilter interface {
	FilterDNS(src netip.Addr, name string) DNSVerdict
}

// DNSFilterFunc adapts a function to DNSFilter.
type DNSFilterFunc func(src netip.Addr, name string) DNSVerdict

// FilterDNS implements DNSFilter.
func (f DNSFilterFunc) FilterDNS(src netip.Addr, name string) DNSVerdict { return f(src, name) }

// StreamAction is an injector's decision about an established stream.
type StreamAction int

const (
	// StreamPass lets the stream through untouched.
	StreamPass StreamAction = iota
	// StreamReset injects a TCP RST toward the client.
	StreamReset
	// StreamDrop silently blackholes the stream (the client times out).
	StreamDrop
)

// StreamVerdict is one injection decision with the injected segment's
// observable quirks.
type StreamVerdict struct {
	Action StreamAction
	// TTL and Window fingerprint the injected RST.
	TTL    uint8
	Window uint16
	// Bidirectional sends the reset to both ends; one-sided resets only
	// kill the client's half — later client bytes still sail past the
	// injector toward the server.
	Bidirectional bool
}

// HostFilter keys RST injection on the HTTP Host header (or, absent
// one, the dialed hostname).
type HostFilter interface {
	FilterHost(info DialInfo, host string) StreamVerdict
}

// HostFilterFunc adapts a function to HostFilter.
type HostFilterFunc func(info DialInfo, host string) StreamVerdict

// FilterHost implements HostFilter.
func (f HostFilterFunc) FilterHost(info DialInfo, host string) StreamVerdict { return f(info, host) }

// SNIFilter keys TLS filtering on the ClientHello's server_name.
// present is false for ESNI-style hellos that omit the extension;
// filters modelling destination-IP fallback may still block those.
type SNIFilter interface {
	FilterSNI(info DialInfo, sni string, present bool) StreamVerdict
}

// SNIFilterFunc adapts a function to SNIFilter.
type SNIFilterFunc func(info DialInfo, sni string, present bool) StreamVerdict

// FilterSNI implements SNIFilter.
func (f SNIFilterFunc) FilterSNI(info DialInfo, sni string, present bool) StreamVerdict {
	return f(info, sni, present)
}

// Mechanisms bundles an ISP's off-path censorship mechanisms. Any field
// may be nil; a nil Mechanisms disables them all.
type Mechanisms struct {
	DNS  DNSFilter
	Host HostFilter
	SNI  SNIFilter
}

// SetMechanisms installs (or, with nil, removes) the ISP's off-path
// censorship mechanisms.
func (i *ISP) SetMechanisms(m *Mechanisms) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.mechanisms = m
}

// Mechanisms returns the installed mechanism set, or nil.
func (i *ISP) Mechanisms() *Mechanisms {
	i.mu.RLock()
	defer i.mu.RUnlock()
	return i.mechanisms
}

// ResetError reports a connection killed by an injected TCP RST,
// carrying the injected segment's fingerprint. It is deliberately a
// distinct type from the chaos-injection ErrConnReset: a fault-plan
// reset is noise the retry machinery may recover from, an injected
// censorship reset is signal the mechanism probes attribute.
type ResetError struct {
	TTL    uint8
	Window uint16
}

// Error implements error.
func (e *ResetError) Error() string {
	return fmt.Sprintf("netsim: connection reset by injected RST (ttl=%d win=%d)", e.TTL, e.Window)
}

// resolveFor resolves name as seen from src: the ISP's poisoned
// resolver path, when one is installed, may forge the answer or deny
// the name. The middlebox's own hosts (bypassIntercept) always see
// truthful answers, as do hosts outside any ISP.
func (n *Network) resolveFor(src *Host, name string) (netip.Addr, error) {
	if src != nil && src.isp != nil && !src.bypassIntercept {
		if m := src.isp.Mechanisms(); m != nil && m.DNS != nil {
			switch v := m.DNS.FilterDNS(src.addr, strings.ToLower(name)); v.Action {
			case DNSSinkhole:
				return v.Addr, nil
			case DNSNXDomain:
				return netip.Addr{}, fmt.Errorf("%w: %s", ErrNameNotFound, name)
			}
		}
	}
	return n.Resolve(name)
}

// needsStreamInspection reports whether egress from src to dst must pass
// through a mechanism stream injector.
func needsStreamInspection(src *Host, dstHost *Host) *Mechanisms {
	if src.isp == nil || src.bypassIntercept || sameISP(src.isp, dstHost) {
		return nil
	}
	m := src.isp.Mechanisms()
	if m == nil || (m.Host == nil && m.SNI == nil) {
		return nil
	}
	return m
}

// mechConn is the on-path injector: it buffers the client's first flight
// until it can classify the stream (TLS ClientHello -> SNI filter, HTTP
// request head -> Host filter), then passes, resets or drops. Unlike the
// Interceptor, which terminates connections in-path, the injector
// forwards the classified bytes onward (a reset request still reaches
// the server) except for drops, whose first flight never leaves the
// middlebox.
type mechConn struct {
	net.Conn
	info DialInfo
	mech *Mechanisms

	mu      sync.Mutex
	buf     []byte
	decided bool
	verdict StreamVerdict
}

// maxSniffBytes bounds the undecided buffer; a first flight that grows
// past it without classifying passes uninspected (real DPI gives up the
// same way).
const maxSniffBytes = 64 << 10

// Write implements net.Conn: buffer until classified, then apply the
// verdict to the stream.
func (c *mechConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.decided {
		v := c.verdict
		c.mu.Unlock()
		switch v.Action {
		case StreamReset:
			if v.Bidirectional {
				// Both halves are dead; the local stack refuses the write.
				return 0, &ResetError{TTL: v.TTL, Window: v.Window}
			}
			// One-sided: the server's half is still open, later client
			// bytes sail past the injector.
			return c.Conn.Write(p)
		case StreamDrop:
			// Blackholed: the write "succeeds" into the void.
			return len(p), nil
		default:
			return c.Conn.Write(p)
		}
	}
	c.buf = append(c.buf, p...)
	verdict, decided := c.classifyLocked()
	if !decided {
		c.mu.Unlock()
		return len(p), nil
	}
	c.decided = true
	c.verdict = verdict
	flush := c.buf
	c.buf = nil
	c.mu.Unlock()

	switch verdict.Action {
	case StreamDrop:
		// The classified first flight never leaves the middlebox; the
		// server sees a connection that goes quiet.
		c.Conn.Close()
		return len(p), nil
	case StreamReset:
		// The triggering flight already passed the injection point; the
		// RST races it. Forward, then for bidirectional resets kill the
		// server half too.
		if _, err := c.Conn.Write(flush); err != nil {
			return len(p), nil
		}
		if verdict.Bidirectional {
			c.Conn.Close()
		}
		return len(p), nil
	default:
		if _, err := c.Conn.Write(flush); err != nil {
			return 0, err
		}
		return len(p), nil
	}
}

// classifyLocked inspects the buffered first flight. Called with c.mu
// held; returns decided == false while more bytes are needed.
func (c *mechConn) classifyLocked() (StreamVerdict, bool) {
	b := c.buf
	if len(b) == 0 {
		return StreamVerdict{}, false
	}
	if b[0] == mechanism.RecordHandshake {
		// TLS: wait for the full first record, then ask the SNI filter.
		n, ok := mechanism.RecordLength(b)
		if !ok && len(b) >= 5 {
			// A handshake byte but an impossible record: not TLS after
			// all; fall back to the hostname the dial recorded.
			return c.hostVerdict(c.info.Hostname), true
		}
		if !ok || len(b) < n {
			if len(b) > maxSniffBytes {
				return StreamVerdict{Action: StreamPass}, true
			}
			return StreamVerdict{}, false
		}
		if c.mech.SNI == nil {
			return StreamVerdict{Action: StreamPass}, true
		}
		sni, present, err := mechanism.ParseClientHello(b[:n])
		if err != nil {
			return StreamVerdict{Action: StreamPass}, true
		}
		if !present {
			sni = strings.ToLower(c.info.Hostname)
		}
		return c.mech.SNI.FilterSNI(c.info, sni, present), true
	}
	// Plaintext that cannot be an HTTP request (DNS-over-TCP, whois, any
	// binary protocol) passes immediately — a Host-keyed injector only
	// inspects HTTP, and buffering a protocol that never sends CRLFCRLF
	// would wedge it.
	if !looksHTTPish(b) {
		return c.hostVerdict(c.info.Hostname), true
	}
	// HTTP: wait for the end of the request head, then ask the Host
	// filter with the Host header (or the dialed hostname).
	if i := bytes.Index(b, []byte("\r\n\r\n")); i >= 0 {
		return c.hostVerdict(hostFromHead(b[:i])), true
	}
	if len(b) > maxSniffBytes {
		return StreamVerdict{Action: StreamPass}, true
	}
	return StreamVerdict{}, false
}

// httpMethods are the request-line prefixes the sniffer treats as HTTP.
var httpMethods = []string{"GET ", "POST ", "PUT ", "HEAD ", "DELETE ", "OPTIONS ", "PATCH ", "TRACE ", "CONNECT "}

// looksHTTPish reports whether b could still grow into an HTTP request
// line (a known method prefix, allowing for partial first writes).
func looksHTTPish(b []byte) bool {
	for _, m := range httpMethods {
		n := len(b)
		if n > len(m) {
			n = len(m)
		}
		if string(b[:n]) == m[:n] {
			return true
		}
	}
	return false
}

// hostVerdict consults the Host filter, falling back to the dialed
// hostname when the head carried no Host header.
func (c *mechConn) hostVerdict(host string) StreamVerdict {
	if c.mech.Host == nil {
		return StreamVerdict{Action: StreamPass}
	}
	if host == "" {
		host = c.info.Hostname
	}
	return c.mech.Host.FilterHost(c.info, strings.ToLower(host))
}

// hostFromHead extracts the Host header value from an HTTP request head.
func hostFromHead(head []byte) string {
	for _, line := range bytes.Split(head, []byte("\r\n")) {
		i := bytes.IndexByte(line, ':')
		if i < 0 {
			continue
		}
		if strings.EqualFold(string(bytes.TrimSpace(line[:i])), "Host") {
			host := string(bytes.TrimSpace(line[i+1:]))
			// Strip a :port suffix (a bare IPv6 literal never appears in
			// the simulated lists).
			if j := strings.LastIndexByte(host, ':'); j >= 0 && !strings.Contains(host[j:], "]") {
				host = host[:j]
			}
			return host
		}
	}
	return ""
}

// Read implements net.Conn: after a reset the read side fails with the
// injected RST's fingerprint; after a drop it reports the timeout a real
// client would eventually hit (collapsed to now — the simulated wait
// costs no wall clock and stays deterministic).
func (c *mechConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	decided, v := c.decided, c.verdict
	c.mu.Unlock()
	if decided {
		switch v.Action {
		case StreamReset:
			return 0, &ResetError{TTL: v.TTL, Window: v.Window}
		case StreamDrop:
			return 0, fmt.Errorf("%w: %s:%d (silently dropped)", ErrConnTimeout, c.info.Dst, c.info.Port)
		}
	}
	return c.Conn.Read(p)
}

// CloseWrite delegates half-close when the stream is passing; for
// killed streams there is nothing left to close.
func (c *mechConn) CloseWrite() error {
	c.mu.Lock()
	decided, v := c.decided, c.verdict
	c.mu.Unlock()
	if decided && v.Action != StreamPass {
		return nil
	}
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

// DomainSet is a deterministic blocked-domain set shared by the filter
// implementations world assembles: a domain matches when it or any
// parent domain is in the set.
type DomainSet map[string]bool

// NewDomainSet builds a DomainSet from lower-cased domains.
func NewDomainSet(domains ...string) DomainSet {
	s := make(DomainSet, len(domains))
	for _, d := range domains {
		s[strings.ToLower(d)] = true
	}
	return s
}

// Contains reports whether name or a parent domain is in the set.
func (s DomainSet) Contains(name string) bool {
	name = strings.ToLower(strings.TrimSuffix(name, "."))
	for name != "" {
		if s[name] {
			return true
		}
		i := strings.IndexByte(name, '.')
		if i < 0 {
			return false
		}
		name = name[i+1:]
	}
	return false
}
