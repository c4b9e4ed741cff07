package netsim

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
)

// Host is a machine on the simulated Internet. A host belongs to at most
// one ISP; subscriber hosts inside a filtered ISP are the paper's
// "in-country vantage points", while ISP-less hosts model the researchers'
// lab server and commodity web hosting.
type Host struct {
	network *Network
	addr    netip.Addr
	name    string
	isp     *ISP

	// bypassIntercept exempts this host's own dials from its ISP's
	// interceptor. The filtering middlebox itself needs this so its onward
	// (proxied) connections are not re-intercepted in a loop.
	bypassIntercept bool

	mu        sync.Mutex
	listeners map[uint16]*listener
	nextPort  atomic.Uint32
}

// Addr returns the host's IP address.
func (h *Host) Addr() netip.Addr { return h.addr }

// Name returns the host's primary DNS name ("" if unnamed).
func (h *Host) Name() string { return h.name }

// ISP returns the host's ISP (nil if none).
func (h *Host) ISP() *ISP { return h.isp }

// Network returns the network the host is attached to.
func (h *Host) Network() *Network { return h.network }

// SetBypassIntercept marks the host's outbound connections as exempt from
// its own ISP's interceptor. Filtering middleboxes set this so forwarded
// traffic is not intercepted recursively.
func (h *Host) SetBypassIntercept(v bool) { h.bypassIntercept = v }

func ephemeralPort(h *Host) uint16 {
	return uint16(32768 + h.nextPort.Add(1)%28000)
}

// listener is a bound port: who may connect, and the handler every
// inbound connection is dispatched to.
type listener struct {
	visibility Visibility
	handler    Handler
}

// Serve binds port and serves each inbound connection with handler in a
// goroutine of its own, spawned from the dialer's delivery path. No
// goroutine runs while the port is idle, so a bound port costs one map
// entry. (A realm's ports cost nothing at all: they are answered by
// Realm.Port without a Host.)
// ISPOnly ports refuse connections originating outside the host's ISP,
// modelling a properly firewalled device (Table 5's first evasion
// tactic). The returned function unbinds the port.
func (h *Host) Serve(port uint16, vis Visibility, handler Handler) (unbind func(), err error) {
	if port == 0 {
		return nil, fmt.Errorf("netsim: cannot bind port 0")
	}
	if handler == nil {
		return nil, fmt.Errorf("netsim: Serve requires a handler")
	}
	l := &listener{visibility: vis, handler: handler}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.listeners[port]; dup {
		return nil, fmt.Errorf("%w: %s:%d", ErrAddrInUse, h.addr, port)
	}
	h.listeners[port] = l
	return func() {
		h.mu.Lock()
		if h.listeners[port] == l {
			delete(h.listeners, port)
		}
		h.mu.Unlock()
	}, nil
}

func (h *Host) unbindAll() {
	h.mu.Lock()
	clear(h.listeners)
	h.mu.Unlock()
}

// deliver routes an inbound connection attempt to the handler bound on
// port.
func (h *Host) deliver(src *Host, port uint16) (net.Conn, error) {
	h.mu.Lock()
	l := h.listeners[port]
	h.mu.Unlock()
	if l == nil || l.visibility == ISPOnly && (src.isp != h.isp || h.isp == nil) {
		// An ISPOnly device is invisible to the outside world:
		// indistinguishable from a closed port.
		return nil, &refusedError{addr: h.addr, port: port}
	}
	return connect(src, h.addr, port, l.handler), nil
}

// refusedError is a dial refused at addr:port. Most of a scan's probes
// meet a closed port and drop the error unread, so the message is
// formatted only when asked for.
type refusedError struct {
	addr netip.Addr
	port uint16
}

func (e *refusedError) Error() string {
	return ErrConnRefused.Error() + ": " + e.addr.String() + ":" + strconv.Itoa(int(e.port))
}

func (e *refusedError) Unwrap() error { return ErrConnRefused }

// Dial opens a connection from this host to dst:port. The connection is
// subject to interception by the host's ISP when dst lies outside it.
func (h *Host) Dial(ctx context.Context, dst netip.Addr, port uint16) (net.Conn, error) {
	return h.network.dial(ctx, h, dst, port, "")
}

// DialHost resolves name and dials it, recording the name in the DialInfo
// seen by interceptors (analogous to a transparent proxy observing SNI).
// Resolution goes through the host's ISP resolver path, which a DNS
// poisoning mechanism may forge.
func (h *Host) DialHost(ctx context.Context, name string, port uint16) (net.Conn, error) {
	addr, err := h.network.resolveFor(h, name)
	if err != nil {
		return nil, err
	}
	return h.network.dial(ctx, h, addr, port, name)
}

// DialNamed dials dst:port while recording hostname in the DialInfo the
// ISP's middleboxes see — the shape of a probe that resolved the name
// elsewhere (e.g. an honest resolver) but still speaks to it by name.
func (h *Host) DialNamed(ctx context.Context, dst netip.Addr, port uint16, hostname string) (net.Conn, error) {
	return h.network.dial(ctx, h, dst, port, hostname)
}

// Dialer adapts the host to the httpwire.Dialer shape: a function from
// (ctx, host, port) to a connection, resolving names via simulated DNS.
func (h *Host) Dialer() func(ctx context.Context, hostname string, port uint16) (net.Conn, error) {
	return func(ctx context.Context, hostname string, port uint16) (net.Conn, error) {
		if addr, err := netip.ParseAddr(hostname); err == nil {
			return h.Dial(ctx, addr, port)
		}
		return h.DialHost(ctx, hostname, port)
	}
}
