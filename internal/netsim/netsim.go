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
//     each served by direct dispatch, so an idle port runs nothing: a
//     Response (a fixed answer) is answered inside the dial by a
//     connection with no pipe behind it, which reads the answer in place
//     and drops what the client writes, and every other Handler is
//     handed its connection in a fresh goroutine,
//   - routing state a dial reads with one atomic load: the realm, its
//     tombstones, the dial latency, the fault plan and whether the
//     network is closed form one immutable route that its rare writers
//     republish, so a dial to a realm address and the reverse name of
//     one take no lock, and every other dial takes only the hosts
//     table's read lock,
//   - refusals without an error value: a scanner's DialProbe learns that
//     a port is closed from the ErrConnRefused sentinel itself, and only
//     Dial and its siblings name the refused address,
//   - in-memory net.Conn transport with deadlines and half-close; a
//     connection is one allocation, and a deadline arms its timer only
//     once a Read or Write waits on it (keeping it until the deadline is
//     set again) and stops it when that direction closes, so a closed
//     connection is garbage at once, not when its deadline passes,
//     while a deadline error still fires at the deadline,
//   - ISPs, which group hosts for ISPOnly ports and egress interception
//     (the AS behind an address, the ground truth of the whois lookups,
//     lives in internal/geo, not here),
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
	"maps"
	"net"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

// ISP is a network operator. An ISP may install an Interceptor, which sees
// every connection its subscriber hosts open to destinations outside the
// ISP — the position a URL-filtering middlebox occupies.
type ISP struct {
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

// Response is a Handler that is a fixed answer: the same bytes for every
// connection, whatever the client sends. A dial to a port it serves is
// answered inside the dial by a connection with no pipe behind it (see
// connect), so a Response costs no goroutine and no buffer. It must not
// be modified once served.
//
// That connection reads as the same Response served through ServeConn
// would, with one difference: a Response never reads its request, so
// the client's writes are dropped as they come, and a write never
// blocks, where a pipe would block once it held 1 MB.
type Response []byte

// ServeConn implements Handler: it writes the answer without reading
// the request, which the pipe buffers, then half-closes rather than
// closes. The client sees EOF after the answer, and a request that lands
// after ServeConn returned is still accepted instead of failing on a
// closed pipe.
func (r Response) ServeConn(conn net.Conn) {
	conn.Write(r) //nolint:errcheck // peer may already be gone
	if cw, ok := conn.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite() //nolint:errcheck // cannot fail in memory
		return
	}
	conn.Close()
}

// InterceptorFunc adapts a function to the Interceptor interface.
type InterceptorFunc func(info DialInfo) Handler

// Intercept implements Interceptor.
func (f InterceptorFunc) Intercept(info DialInfo) Handler { return f(info) }

// Network is the simulated Internet.
type Network struct {
	clock simclock.Clock

	// route is everything a dial reads except the hosts table, so that
	// a dial reads it with one atomic load and writes nothing another
	// core reads.
	route atomic.Pointer[route]

	mu    sync.RWMutex
	hosts map[netip.Addr]*Host
	dns   map[string]netip.Addr
	rdns  map[netip.Addr]string
	isps  map[string]*ISP
}

// route is one published version of the network's routing state. It is
// never changed once published: its writers (SetRealm, RemoveHost of a
// realm address, SetDialLatency, SetFaultPlan, Close) hold Network.mu,
// copy it, change the copy and publish that, and RemoveHost copies
// tombstones before adding to it. They are rare; AddHost is not (a
// default Build registers about 131 hosts), which is why the hosts table
// is not part of the route.
type route struct {
	realm      Realm
	tombstones map[netip.Addr]bool // realm addresses RemoveHost dropped
	latency    time.Duration
	faults     *FaultPlan
	closed     bool
}

// realmAnswers reports whether the route's realm may answer for addr:
// there is a realm, and RemoveHost has not dropped addr from it. Whether
// the realm owns addr is the realm's to say.
func (rt *route) realmAnswers(addr netip.Addr) bool {
	return rt.realm != nil && (rt.tombstones == nil || !rt.tombstones[addr])
}

// New returns an empty simulated Internet. If clock is nil the system clock
// is used.
func New(clock simclock.Clock) *Network {
	if clock == nil {
		clock = simclock.System{}
	}
	n := &Network{
		clock: clock,
		hosts: make(map[netip.Addr]*Host),
		dns:   make(map[string]netip.Addr),
		rdns:  make(map[netip.Addr]string),
		isps:  make(map[string]*ISP),
	}
	n.route.Store(&route{})
	return n
}

// editRoute returns a copy of the published route for a writer to change
// and publish with n.route.Store. Callers hold n.mu, which orders the
// writers.
func (n *Network) editRoute() *route {
	rt := *n.route.Load()
	return &rt
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
	rt := n.editRoute()
	rt.latency = d
	n.route.Store(rt)
	n.mu.Unlock()
}

// AddISP registers an ISP under a name no other ISP has.
func (n *Network) AddISP(name string) (*ISP, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.isps[name]; dup {
		return nil, fmt.Errorf("netsim: ISP %q already registered", name)
	}
	isp := &ISP{}
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
	if rt := n.editRoute(); rt.realm != nil && rt.realm.Contains(addr) && !rt.tombstones[addr] {
		published := rt.tombstones
		rt.tombstones = make(map[netip.Addr]bool, len(published)+1)
		maps.Copy(rt.tombstones, published)
		rt.tombstones[addr] = true
		n.route.Store(rt)
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
// realm hosts exactly where registered ones would be. A realm address
// that RemoveHost dropped is left out, and one that is also registered
// (a built console) appears once. The realm's addresses are filtered
// and merged with the registered ones in one pass into the one slice
// returned.
func (n *Network) Addrs() []netip.Addr {
	rt := n.route.Load()
	var realm []netip.Addr
	if rt.realm != nil {
		realm = rt.realm.Addrs()
	}
	n.mu.RLock()
	reg := make([]netip.Addr, 0, len(n.hosts))
	for a := range n.hosts {
		reg = append(reg, a)
	}
	n.mu.RUnlock()
	slices.SortFunc(reg, netip.Addr.Compare)

	out := make([]netip.Addr, 0, len(reg)+len(realm))
	for _, a := range realm {
		for len(reg) > 0 && reg[0].Less(a) {
			out, reg = append(out, reg[0]), reg[1:]
		}
		if (len(reg) > 0 && reg[0] == a) || rt.tombstones[a] {
			continue // registered, so added in its turn, or removed
		}
		out = append(out, a)
	}
	return append(out, reg...)
}

// Resolve looks up a hostname, registered names first, then the realm's.
// A realm name whose address RemoveHost dropped does not resolve.
func (n *Network) Resolve(name string) (netip.Addr, error) {
	lower := strings.ToLower(name)
	n.mu.RLock()
	addr, ok := n.dns[lower]
	n.mu.RUnlock()
	if ok {
		return addr, nil
	}
	if rt := n.route.Load(); rt.realm != nil {
		if addr, ok := rt.realm.Resolve(lower); ok && rt.realmAnswers(addr) {
			return addr, nil
		}
	}
	return netip.Addr{}, fmt.Errorf("%w: %s", ErrNameNotFound, name)
}

// ReverseLookup returns the primary DNS name for addr, if any. It
// follows the dial's rule: the realm answers for its own addresses, from
// the published route and without the network's lock, and the
// registered names answer for every other address, a realm address that
// RemoveHost dropped included. A realm host that is also registered (a
// console) is registered under its realm name, so both agree.
func (n *Network) ReverseLookup(addr netip.Addr) (string, bool) {
	if rt := n.route.Load(); rt.realmAnswers(addr) && rt.realm.Contains(addr) {
		return rt.realm.ReverseLookup(addr)
	}
	n.mu.RLock()
	name, ok := n.rdns[addr]
	n.mu.RUnlock()
	return name, ok
}

// Close shuts the network down: every port unbinds and future dials fail.
func (n *Network) Close() {
	n.mu.Lock()
	rt := n.editRoute()
	rt.closed = true
	n.route.Store(rt)
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
// A dial to a realm address reads the published route and the realm and
// takes no lock; any other dial takes the read lock for the hosts table.
// A refused dial returns the bare ErrConnRefused (see nameRefusal).
func (n *Network) dial(ctx context.Context, src *Host, dst netip.Addr, port uint16, hostname string) (net.Conn, error) {
	rt := n.route.Load()
	if rt.closed {
		return nil, ErrNetworkClosed
	}
	// A receive on Done, not ctx.Err: Err locks the context, and every
	// probe of a scan dials with its pool's one context, so that lock
	// would be written from every core.
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	default:
	}
	// A realm answers for its own addresses before the hosts table, so a
	// realm host it is still building is never reached half-wired. This
	// happens before the interception decision, so the dial sees the
	// same sameISP answer a registered host would give.
	var dstHost *Host
	var realmHandler Handler
	var realmOwned bool
	if rt.realmAnswers(dst) {
		dstHost, realmHandler, realmOwned = rt.realm.Port(dst, port)
	}
	if !realmOwned {
		n.mu.RLock()
		dstHost = n.hosts[dst]
		n.mu.RUnlock()
	}
	if latency := rt.latency; latency > 0 {
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
	faultedConn, faultErr, wrap := n.injectFault(ctx, rt.faults, info)
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
		return nil, ErrConnRefused
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
//
// A Response needs neither a goroutine nor a pipe: its answer is known
// before the dialer sees the connection, and its request is never read,
// so the dialer gets a cannedConn over the answer.
func connect(src *Host, dst netip.Addr, port uint16, handler Handler) net.Conn {
	local := simAddr{addr: src.addr, port: ephemeralPort(src)}
	remote := simAddr{addr: dst, port: port}
	if r, ok := handler.(Response); ok {
		return &cannedConn{answer: r, local: local, remote: remote}
	}
	p := newConnPair(local, remote)
	go handler.ServeConn(&p.b)
	return &p.a
}

func sameISP(isp *ISP, dst *Host) bool {
	return dst != nil && dst.isp == isp
}

// simAddr is a simulated endpoint address. A connection's addresses live
// in its connPair, so its endpoints hand out *simAddr as their net.Addr.
type simAddr struct {
	addr netip.Addr
	port uint16
}

func (a simAddr) Network() string { return "sim" }
func (a simAddr) String() string  { return netip.AddrPortFrom(a.addr, a.port).String() }

// AddrOf extracts the simulated IP from a net.Addr produced by this
// package. It returns the zero Addr if the value is foreign.
func AddrOf(a net.Addr) netip.Addr {
	if sa, ok := a.(*simAddr); ok {
		return sa.addr
	}
	return netip.Addr{}
}
