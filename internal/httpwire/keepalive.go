package httpwire

import (
	"net"
	"strconv"
	"strings"
	"sync"
)

// ConnPool is an opt-in keep-alive connection pool for Client. A Client
// with a non-nil Pool stops forcing "Connection: close" on requests and
// returns transport connections to the pool after fully-framed responses,
// so re-scanning the same origins (the measurement client's URL lists,
// the monitor's steady-state re-runs) skips the per-request dial setup.
//
// A connection is only reusable when the exchange left it in a known
// state: the response carried explicit framing (Content-Length or chunked
// transfer coding, both of which ReadResponse consumes exactly) and
// neither side asked for "Connection: close". Responses delimited by EOF
// are never pooled. Middleboxes that close after one exchange (the
// product gateways set "Connection: close" on everything they emit)
// therefore bypass the pool automatically.
//
// All methods are safe for concurrent use; one pool is typically shared
// by every request a vantage issues.
type ConnPool struct {
	mu     sync.Mutex
	idle   map[string][]net.Conn
	max    int // idle connections retained per endpoint
	closed bool

	reused uint64
	pooled uint64
}

// DefaultMaxIdlePerHost bounds idle connections kept per endpoint.
const DefaultMaxIdlePerHost = 4

// NewConnPool builds an empty pool. maxIdlePerHost <= 0 uses
// DefaultMaxIdlePerHost.
func NewConnPool(maxIdlePerHost int) *ConnPool {
	if maxIdlePerHost <= 0 {
		maxIdlePerHost = DefaultMaxIdlePerHost
	}
	return &ConnPool{idle: make(map[string][]net.Conn), max: maxIdlePerHost}
}

// get pops an idle connection for key (host:port), or nil.
func (p *ConnPool) get(key string) net.Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	conns := p.idle[key]
	if len(conns) == 0 {
		return nil
	}
	c := conns[len(conns)-1]
	p.idle[key] = conns[:len(conns)-1]
	p.reused++
	return c
}

// put offers a connection back for reuse. It reports whether the pool
// kept it; the caller must close the connection otherwise.
func (p *ConnPool) put(key string, c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.idle[key]) >= p.max {
		return false
	}
	p.idle[key] = append(p.idle[key], c)
	p.pooled++
	return true
}

// CloseIdle closes every idle connection. The pool remains usable.
func (p *ConnPool) CloseIdle() {
	p.mu.Lock()
	idle := p.idle
	p.idle = make(map[string][]net.Conn)
	p.mu.Unlock()
	for _, conns := range idle {
		for _, c := range conns {
			c.Close()
		}
	}
}

// Close closes every idle connection and rejects future puts (gets keep
// draining whatever was pooled before the close).
func (p *ConnPool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.CloseIdle()
}

// Stats reports how many exchanges reused a pooled connection and how
// many connections were returned for reuse.
func (p *ConnPool) Stats() (reused, pooled uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reused, p.pooled
}

// poolKey names the transport endpoint a request dials.
func poolKey(host string, port uint16) string {
	return net.JoinHostPort(host, strconv.Itoa(int(port)))
}

// wantsClose reports whether a header asked to tear the connection down.
func wantsClose(h *Header) bool {
	return h != nil && strings.EqualFold(strings.TrimSpace(h.Get("Connection")), "close")
}

// reusable reports whether the exchange left conn in a reusable state:
// the response was explicitly framed and neither side requested close.
func reusable(req *Request, resp *Response) bool {
	if wantsClose(req.Header) || wantsClose(resp.Header) {
		return false
	}
	if strings.EqualFold(resp.Header.Get("Transfer-Encoding"), "chunked") {
		return true
	}
	return resp.Header.Has("Content-Length")
}
