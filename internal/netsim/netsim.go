// Package netsim implements the simulated Internet that stands in for the
// paper's measurement substrate.
//
// The identification methodology (§3) observes only what a remote TCP
// client can observe: which ports accept connections and what banner bytes
// come back. The confirmation methodology (§4) additionally requires
// vantage points *inside* censored ISPs, because filtering middleboxes sit
// on the ISP's egress path. netsim reproduces exactly those observables:
//
//   - an IPv4 address space with registered Hosts, plus at most one Realm
//     whose addresses are answered from derivations rather than Hosts,
//   - per-host ports with Public or ISPOnly visibility (an ISPOnly
//     admin console is the paper's "not visible on the global Internet"),
//     each served by direct dispatch: a dial hands its connection to the
//     port's Handler in a fresh goroutine, so an idle port runs nothing,
//   - in-memory net.Conn transport with deadlines and half-close,
//   - autonomous systems and ISPs, so IP→ASN mapping has ground truth,
//   - transparent egress interception: when a host inside an ISP dials an
//     outside address, the ISP's Interceptor (a URL-filtering product) may
//     terminate the connection and serve a block page or proxy it onward,
//   - a DNS registry with forward and reverse entries.
//
// Everything is deterministic; time-dependent behaviour lives in the
// products and is driven by a simclock.Clock.
package netsim

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"time"

	"filtermap/internal/simclock"
)

// Common dial errors, mirroring kernel-level TCP failures.
var (
	ErrConnRefused   = errors.New("netsim: connection refused")
	ErrHostUnreach   = errors.New("netsim: no route to host")
	ErrNameNotFound  = errors.New("netsim: no such host")
	ErrAddrInUse     = errors.New("netsim: address already in use")
	ErrHostExists    = errors.New("netsim: host already registered at address")
	ErrNetworkClosed = errors.New("netsim: network shut down")
)

// Visibility controls who may connect to a bound port.
type Visibility int

const (
	// Public ports accept connections from any host. This is the
	// misconfiguration the paper's identification method depends on.
	Public Visibility = iota
	// ISPOnly ports accept connections only from hosts within the same
	// ISP. This models a correctly firewalled management interface and is
	// the evasion tactic in Table 5 row 1.
	ISPOnly
)

// AS is an autonomous system: a numbered collection of IP prefixes operated
// in one country. It is the ground truth behind the Team Cymru-style whois
// lookups in internal/geo.
type AS struct {
	Number   int
	Name     string
	Country  string // ISO 3166-1 alpha-2, upper case
	Prefixes []netip.Prefix
}

// Contains reports whether addr falls inside any of the AS's prefixes.
func (a *AS) Contains(addr netip.Addr) bool {
	for _, p := range a.Prefixes {
		if p.Contains(addr) {
			return true
		}
	}
	return false
}

// ISP is a network operator. An ISP may install an Interceptor, which sees
// every connection its subscriber hosts open to destinations outside the
// ISP — the position a URL-filtering middlebox occupies.
type ISP struct {
	Name string
	AS   *AS

	mu          sync.RWMutex
	interceptor Interceptor
	mechanisms  *Mechanisms
}

// SetInterceptor installs (or, with nil, removes) the ISP's egress
// filtering middlebox.
func (i *ISP) SetInterceptor(ic Interceptor) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.interceptor = ic
}

// Interceptor returns the installed egress middlebox, or nil.
func (i *ISP) Interceptor() Interceptor {
	i.mu.RLock()
	defer i.mu.RUnlock()
	return i.interceptor
}

// DialInfo describes an intercepted connection attempt.
type DialInfo struct {
	Src      netip.Addr
	Dst      netip.Addr
	Port     uint16
	Hostname string // non-empty when the dialer used DialHost
}

// Interceptor is consulted for every egress connection from an ISP's hosts.
//
// Returning a non-nil Handler terminates the TCP connection at the
// middlebox: the Handler is served the client side of the connection and
// may answer directly (block page) or open its own onward connection
// (transparent proxy) to the destination in info. Returning nil lets the
// connection through untouched.
type Interceptor interface {
	Intercept(info DialInfo) Handler
}

// Handler serves one connection: an inbound connection to a bound port,
// or the subscriber side of one an Interceptor terminated.
// *httpwire.Server and *geo.WhoisServer are Handlers.
type Handler interface {
	ServeConn(conn net.Conn)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(conn net.Conn)

// ServeConn implements Handler.
func (f HandlerFunc) ServeConn(conn net.Conn) { f(conn) }

// InterceptorFunc adapts a function to the Interceptor interface.
type InterceptorFunc func(info DialInfo) Handler

// Intercept implements Interceptor.
func (f InterceptorFunc) Intercept(info DialInfo) Handler { return f(info) }

// Network is the simulated Internet.
type Network struct {
	clock simclock.Clock

	mu          sync.RWMutex
	hosts       map[netip.Addr]*Host
	dns         map[string]netip.Addr
	rdns        map[netip.Addr]string
	ases        map[int]*AS
	isps        map[string]*ISP
	realm       Realm
	tombstones  map[netip.Addr]bool // realm addresses RemoveHost dropped
	dialLatency time.Duration
	faults      *FaultPlan
	closed      bool
}

// New returns an empty simulated Internet. If clock is nil the system clock
// is used.
func New(clock simclock.Clock) *Network {
	if clock == nil {
		clock = simclock.System{}
	}
	return &Network{
		clock: clock,
		hosts: make(map[netip.Addr]*Host),
		dns:   make(map[string]netip.Addr),
		rdns:  make(map[netip.Addr]string),
		ases:  make(map[int]*AS),
		isps:  make(map[string]*ISP),
	}
}

// Clock returns the network's time source.
func (n *Network) Clock() simclock.Clock { return n.clock }

// SetDialLatency imposes a wall-clock delay on every connection attempt,
// modelling the WAN round-trip a real scan pays per probe. The default is
// zero (instantaneous dials), which keeps the unit tests fast; benchmarks
// comparing serial and pooled pipelines set a realistic latency so the
// speedup they report reflects real scanning conditions.
func (n *Network) SetDialLatency(d time.Duration) {
	n.mu.Lock()
	n.dialLatency = d
	n.mu.Unlock()
}

// AddAS registers an autonomous system. The AS number must be unused.
func (n *Network) AddAS(number int, name, country string, prefixes ...netip.Prefix) (*AS, error) {
	if number <= 0 {
		return nil, fmt.Errorf("netsim: invalid AS number %d", number)
	}
	country = strings.ToUpper(country)
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.ases[number]; dup {
		return nil, fmt.Errorf("netsim: AS%d already registered", number)
	}
	as := &AS{Number: number, Name: name, Country: country, Prefixes: prefixes}
	n.ases[number] = as
	return as, nil
}

// AddISP registers an ISP operating the given AS.
func (n *Network) AddISP(name string, as *AS) (*ISP, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.isps[name]; dup {
		return nil, fmt.Errorf("netsim: ISP %q already registered", name)
	}
	isp := &ISP{Name: name, AS: as}
	n.isps[name] = isp
	return isp, nil
}

// ISPByName returns the named ISP.
func (n *Network) ISPByName(name string) (*ISP, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	isp, ok := n.isps[name]
	return isp, ok
}

// AddHost registers a host at addr. isp may be nil for a host that belongs
// to no simulated ISP (e.g. the researchers' lab server or web hosting).
// name, if non-empty, is registered as the host's primary DNS name.
func (n *Network) AddHost(addr netip.Addr, name string, isp *ISP) (*Host, error) {
	if !addr.IsValid() {
		return nil, fmt.Errorf("netsim: invalid address")
	}
	n.mu.Lock()
	if _, dup := n.hosts[addr]; dup {
		n.mu.Unlock()
		return nil, ErrHostExists
	}
	h := &Host{network: n, addr: addr, name: strings.ToLower(name), isp: isp, listeners: make(map[uint16]*listener)}
	n.hosts[addr] = h
	if h.name != "" {
		n.dns[h.name] = addr
		n.rdns[addr] = h.name
	}
	n.mu.Unlock()
	return h, nil
}

// RemoveHost deregisters the host at addr, unbinding its ports. A realm
// address stays removed whether or not it was ever dialed: it is
// unreachable and drops out of Addrs.
func (n *Network) RemoveHost(addr netip.Addr) {
	n.mu.Lock()
	h := n.hosts[addr]
	delete(n.hosts, addr)
	if n.realm != nil && n.realm.Contains(addr) {
		if n.tombstones == nil {
			n.tombstones = make(map[netip.Addr]bool)
		}
		n.tombstones[addr] = true
	}
	if name, ok := n.rdns[addr]; ok {
		delete(n.rdns, addr)
		if n.dns[name] == addr {
			delete(n.dns, name)
		}
	}
	n.mu.Unlock()
	if h != nil {
		h.unbindAll()
	}
}

// Host returns the host registered at addr.
func (n *Network) Host(addr netip.Addr) (*Host, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	h, ok := n.hosts[addr]
	return h, ok
}

// Hosts returns all registered hosts sorted by address. Scanners use this
// together with each host's exposed ports; it stands in for "the IPv4
// address space" without iterating 2^32 addresses.
func (n *Network) Hosts() []*Host {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]*Host, 0, len(n.hosts))
	for _, h := range n.hosts {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr.Less(out[j].addr) })
	return out
}

// Addrs returns the addresses of all hosts, sorted: every registered
// host plus every realm address, so a scanner sweeping the world sees
// realm hosts exactly where registered ones would be.
func (n *Network) Addrs() []netip.Addr {
	hosts := n.Hosts()
	out := make([]netip.Addr, len(hosts))
	for i, h := range hosts {
		out[i] = h.addr
	}
	return mergeSortedAddrs(out, n.realmAddrs())
}

// Resolve looks up a hostname, registered names first, then the realm's.
func (n *Network) Resolve(name string) (netip.Addr, error) {
	lower := strings.ToLower(name)
	n.mu.RLock()
	addr, ok := n.dns[lower]
	n.mu.RUnlock()
	if ok {
		return addr, nil
	}
	if addr, ok := n.realmResolve(lower); ok {
		return addr, nil
	}
	return netip.Addr{}, fmt.Errorf("%w: %s", ErrNameNotFound, name)
}

// ReverseLookup returns the primary DNS name for addr, if any.
func (n *Network) ReverseLookup(addr netip.Addr) (string, bool) {
	n.mu.RLock()
	name, ok := n.rdns[addr]
	n.mu.RUnlock()
	if ok {
		return name, true
	}
	return n.realmReverse(addr)
}

// Close shuts the network down: every port unbinds and future dials fail.
func (n *Network) Close() {
	n.mu.Lock()
	n.closed = true
	hosts := make([]*Host, 0, len(n.hosts))
	for _, h := range n.hosts {
		hosts = append(hosts, h)
	}
	n.mu.Unlock()
	for _, h := range hosts {
		h.unbindAll()
	}
}

// dial implements the routing decision for a connection attempt from src.
func (n *Network) dial(ctx context.Context, src *Host, dst netip.Addr, port uint16, hostname string) (net.Conn, error) {
	n.mu.RLock()
	closed := n.closed
	realm, removed := n.realm, n.tombstones[dst]
	dstHost := n.hosts[dst]
	latency := n.dialLatency
	n.mu.RUnlock()
	if closed {
		return nil, ErrNetworkClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A realm answers for its own addresses before the hosts table, so a
	// realm host it is still building is never reached half-wired. This
	// happens before the interception decision, so the dial sees the
	// same sameISP answer a registered host would give.
	var realmHandler Handler
	var realmOwned bool
	if realm != nil && !removed {
		var h *Host
		if h, realmHandler, realmOwned = realm.Port(dst, port); realmOwned {
			dstHost = h
		}
	}
	if latency > 0 {
		t := time.NewTimer(latency)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}

	info := DialInfo{Src: src.addr, Dst: dst, Port: port, Hostname: hostname}

	// Fault injection: the installed FaultPlan (if any) may decide the
	// dial outright (timeout, flap, synthetic 503), delay it (slow drip),
	// or hand back a wrapper that mangles the byte stream once routing
	// establishes the connection.
	faultedConn, faultErr, wrap := n.injectFault(ctx, info)
	if faultErr != nil {
		return nil, faultErr
	}
	if faultedConn != nil {
		return faultedConn, nil
	}
	wrapConn := func(c net.Conn) net.Conn {
		if wrap != nil {
			return wrap(c)
		}
		return c
	}

	// Egress interception: traffic from an ISP subscriber to a destination
	// outside that ISP passes through the ISP's middlebox, if one is
	// installed. Same-ISP traffic (e.g. to the filter's own admin console)
	// is not intercepted, matching an egress middlebox's position.
	if src.isp != nil && !src.bypassIntercept {
		if ic := src.isp.Interceptor(); ic != nil && !sameISP(src.isp, dstHost) {
			if h := ic.Intercept(info); h != nil {
				return wrapConn(connect(src, dst, port, h)), nil
			}
		}
	}

	var c net.Conn
	switch {
	case realmHandler != nil:
		c = connect(src, dst, port, realmHandler)
	case dstHost != nil:
		var err error
		if c, err = dstHost.deliver(src, port); err != nil {
			return nil, err
		}
	case realmOwned:
		// A realm address with nothing bound on port: a closed port.
		return nil, &refusedError{addr: dst, port: port}
	default:
		return nil, fmt.Errorf("%w: %s", ErrHostUnreach, dst)
	}
	conn := wrapConn(c)
	// Off-path stream injection: when the subscriber's ISP runs a Host or
	// SNI filter, the established stream passes through an injector that
	// sniffs the first flight and may reset or blackhole it. It wraps
	// outside the fault layer: chaos mangling happens on the wire, the
	// injector sits at the ISP edge nearer the client.
	if m := needsStreamInspection(src, dstHost); m != nil {
		conn = &mechConn{Conn: conn, info: info, mech: m}
	}
	return conn, nil
}

// connect opens a fresh pipe from src to dst:port and serves its far end
// with handler in a goroutine of its own, returning the dialer's end. A
// middlebox terminating a connection and a bound port accepting one both
// take this step.
func connect(src *Host, dst netip.Addr, port uint16, handler Handler) net.Conn {
	client, server := newConnPair(
		simAddr{addr: src.addr, port: ephemeralPort(src)},
		simAddr{addr: dst, port: port},
	)
	go handler.ServeConn(server)
	return client
}

func sameISP(isp *ISP, dst *Host) bool {
	return dst != nil && dst.isp == isp
}

// simAddr implements net.Addr for simulated endpoints.
type simAddr struct {
	addr netip.Addr
	port uint16
}

func (a simAddr) Network() string { return "sim" }
func (a simAddr) String() string  { return netip.AddrPortFrom(a.addr, a.port).String() }

// Addr exposes the underlying IP for components that need it (e.g. a
// middlebox attributing a connection to a subscriber).
func (a simAddr) Addr() netip.Addr { return a.addr }

// AddrOf extracts the simulated IP from a net.Addr produced by this
// package. It returns the zero Addr if the value is foreign.
func AddrOf(a net.Addr) netip.Addr {
	if sa, ok := a.(simAddr); ok {
		return sa.addr
	}
	return netip.Addr{}
}
