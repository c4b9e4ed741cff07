package common

import (
	"context"
	"net"
	"strings"
	"time"

	"filtermap/internal/httpwire"
	"filtermap/internal/netsim"
	"filtermap/internal/simclock"
)

// Gateway is the middlebox chassis a policy engine runs on. Installed as
// an ISP's netsim.Interceptor it transparently terminates subscriber HTTP
// connections to port 80, consults the engine at the time of its host
// network's clock, and either serves the vendor block page or forwards
// the request to the origin. It can additionally serve
// explicit-proxy connections (absolute-form request targets) on a listener
// of its host — Blue Coat ProxySG's normal mode.
type Gateway struct {
	// Host is the middlebox machine; onward connections originate from it.
	Host *netsim.Host
	// Engine decides requests. A nil engine forwards everything (a pure
	// traffic-management proxy, §4.5).
	Engine PolicyEngine
	// ViaToken, if non-empty, is appended to the Via header of forwarded
	// requests and responses, e.g. "1.1 proxy1.etisalat.ae (Blue Coat
	// ProxySG)". These tokens are exactly what WhatWeb-style validation
	// keys on.
	ViaToken string
	// License, when set, models concurrent-user licensing; the gateway
	// fails open while demand exceeds the license.
	License *LicenseModel
	// OnForward, if set, is invoked for every request forwarded unblocked
	// (Netsweeper hangs its categorization queue here).
	OnForward func(req *httpwire.Request)
	// OnBlock, if set, is invoked for every blocked request.
	OnBlock func(req *httpwire.Request, category string)
	// Anonymize strips identifying headers and BrandTokens from every
	// response the gateway emits (Table 5's header-scrubbing evasion).
	Anonymize bool
	// BrandTokens are the vendor strings blanked when Anonymize is set.
	BrandTokens []string
}

// scrub applies the anonymization policy to an outgoing response.
func (g *Gateway) scrub(resp *httpwire.Response) *httpwire.Response {
	if !g.Anonymize {
		return resp
	}
	return ScrubResponse(resp, g.BrandTokens)
}

func (g *Gateway) clock() simclock.Clock {
	if g.Host != nil {
		return g.Host.Network().Clock()
	}
	return simclock.System{}
}

// Intercept implements netsim.Interceptor.
func (g *Gateway) Intercept(info netsim.DialInfo) netsim.Handler {
	if info.Port != 80 {
		return nil
	}
	if !g.License.FilteringActive(g.clock().Now()) {
		// License exhausted: the filter is effectively offline and
		// traffic flows untouched (§4.4 challenge 2). We bypass rather
		// than forward so not even Via headers are added.
		return nil
	}
	return netsim.HandlerFunc(func(conn net.Conn) { g.serveTransparent(conn, info) })
}

// serveTransparent handles one intercepted subscriber connection.
func (g *Gateway) serveTransparent(conn net.Conn, info netsim.DialInfo) {
	defer conn.Close()
	buf := httpwire.GetReadBuffer()
	defer buf.Release()
	br := buf.Reader(conn)
	for {
		conn.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck // best-effort
		req, err := httpwire.ReadRequest(br)
		if err != nil {
			return
		}
		req.RemoteAddr = conn.RemoteAddr()
		if done := g.handleOne(conn, req, info); done {
			return
		}
	}
}

// handleOne decides and answers a single request; it reports whether the
// connection should close.
func (g *Gateway) handleOne(conn net.Conn, req *httpwire.Request, info netsim.DialInfo) (done bool) {
	now := g.clock().Now()

	if g.Engine != nil {
		if d := g.Engine.Decide(req, now); d.Block {
			if g.OnBlock != nil {
				g.OnBlock(req, d.Category)
			}
			resp := d.Response
			if resp == nil {
				resp = httpwire.NewResponse(403, httpwire.NewHeader("Content-Type", "text/plain"), []byte("blocked\n"))
			}
			resp = g.scrub(resp)
			resp.Header.Set("Connection", "close")
			resp.WriteTo(conn) //nolint:errcheck // client may be gone
			return true
		}
	}
	if g.OnForward != nil {
		g.OnForward(req)
	}
	resp, err := g.forward(req, info)
	if err != nil {
		bad := httpwire.NewResponse(502, httpwire.NewHeader("Content-Type", "text/plain", "Connection", "close"), []byte("upstream unreachable\n"))
		bad.WriteTo(conn) //nolint:errcheck // client may be gone
		return true
	}
	resp = g.scrub(resp)
	resp.Header.Set("Connection", "close")
	if _, err := resp.WriteTo(conn); err != nil {
		return true
	}
	return true // one exchange per intercepted connection keeps relaying simple
}

// forward performs the onward fetch from the gateway host.
func (g *Gateway) forward(req *httpwire.Request, info netsim.DialInfo) (*httpwire.Response, error) {
	out := req.Clone()
	out.Header.Set("Connection", "close")
	if g.ViaToken != "" {
		appendVia(out.Header, g.ViaToken)
	}
	// Re-originated connections carry the subscriber's address, as
	// intercepting proxies conventionally do. (This is one of the
	// middlebox symptoms a Netalyzr-style detector keys on.)
	if !g.Anonymize && info.Src.IsValid() {
		out.Header.Set("X-Forwarded-For", info.Src.String())
	}
	// Restore origin-form target for the origin server.
	if out.URL != nil && out.URL.IsAbs() {
		out.Header.Set("Host", out.URL.Host)
		u := *out.URL
		u.Scheme, u.Host = "", ""
		out.Target = u.RequestURI()
	}

	host := out.Hostname()
	port := info.Port
	if host == "" {
		host = info.Dst.String()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	up, err := g.Host.Dialer()(ctx, host, port)
	if err != nil {
		// Fall back to the literal destination IP (the client may be
		// using a hostname unknown to DNS).
		up, err = g.Host.Dial(ctx, info.Dst, port)
		if err != nil {
			return nil, err
		}
	}
	defer up.Close()
	up.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck // best-effort
	if _, err := out.WriteTo(up); err != nil {
		return nil, err
	}
	buf := httpwire.GetReadBuffer()
	resp, err := httpwire.ReadResponse(buf.Reader(up), out.Method == "HEAD")
	buf.Release()
	if err != nil {
		return nil, err
	}
	if g.ViaToken != "" {
		appendVia(resp.Header, g.ViaToken)
	}
	return resp, nil
}

// ExplicitProxyHandler returns an httpwire.Handler implementing an
// explicit HTTP proxy on the gateway: clients send absolute-form targets.
// Mount it on a listener of the gateway host to expose the proxy port that
// scanners find.
func (g *Gateway) ExplicitProxyHandler() httpwire.Handler {
	return httpwire.HandlerFunc(func(req *httpwire.Request) *httpwire.Response {
		now := g.clock().Now()
		if req.URL == nil || !req.URL.IsAbs() {
			return httpwire.NewResponse(400, httpwire.NewHeader("Content-Type", "text/plain"), []byte("explicit proxy requires absolute-form request target\n"))
		}
		if g.Engine != nil && g.License.FilteringActive(now) {
			if d := g.Engine.Decide(req, now); d.Block {
				if g.OnBlock != nil {
					g.OnBlock(req, d.Category)
				}
				if d.Response != nil {
					return g.scrub(d.Response)
				}
				return g.scrub(httpwire.NewResponse(403, httpwire.NewHeader("Content-Type", "text/plain"), []byte("blocked\n")))
			}
		}
		if g.OnForward != nil {
			g.OnForward(req)
		}
		port := uint16(80)
		if p := req.URL.Port(); p != "" {
			var n int
			for _, c := range p {
				if c < '0' || c > '9' {
					n = -1
					break
				}
				n = n*10 + int(c-'0')
			}
			if n > 0 && n < 65536 {
				port = uint16(n)
			}
		}
		resp, err := g.forward(req, netsim.DialInfo{Port: port})
		if err != nil {
			return httpwire.NewResponse(502, httpwire.NewHeader("Content-Type", "text/plain"), []byte("upstream unreachable\n"))
		}
		return g.scrub(resp)
	})
}

func appendVia(h *httpwire.Header, token string) {
	if existing := h.Get("Via"); existing != "" {
		if !strings.Contains(existing, token) {
			h.Set("Via", existing+", "+token)
		}
		return
	}
	h.Add("Via", token)
}
