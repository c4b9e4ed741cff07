package httpwire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Dialer opens a transport connection to host:port. Hosts supply their own
// dialers (netsim routes through ISP interceptors; a real-socket dialer
// uses net.Dialer), which is how the same measurement client runs from
// different vantage points.
type Dialer func(ctx context.Context, host string, port uint16) (net.Conn, error)

// NetDialer returns a Dialer backed by the operating system's TCP stack.
func NetDialer() Dialer {
	var d net.Dialer
	return func(ctx context.Context, host string, port uint16) (net.Conn, error) {
		return d.DialContext(ctx, "tcp", net.JoinHostPort(host, strconv.Itoa(int(port))))
	}
}

// Proxy identifies an explicit HTTP proxy.
type Proxy struct {
	Host string
	Port uint16
}

// Client issues HTTP/1.1 requests over a Dialer. Without a Pool it uses
// one connection per request (Connection: close), which matches how
// one-shot scanning tools behave. With a Pool it keeps reusable
// connections alive between requests, which is how a measurement client
// re-scanning a URL list from the same vantage behaves.
type Client struct {
	Dial Dialer
	// Timeout bounds a whole request/response exchange. Zero means 30s.
	Timeout time.Duration
	// Proxy, if non-nil, routes requests through an explicit proxy using
	// absolute-form targets (the Blue Coat ProxySG explicit mode).
	Proxy *Proxy
	// UserAgent is added to requests that lack one. Empty leaves requests
	// untouched.
	UserAgent string
	// MaxRedirects bounds GetFollow. Zero means 10.
	MaxRedirects int
	// Pool, if non-nil, enables keep-alive reuse: requests are no longer
	// forced to Connection: close, and connections left in a known state
	// after the exchange are parked for the next request to the same
	// endpoint. A request that finds a stale pooled connection (the peer
	// closed it while idle) is retried once on a fresh dial.
	Pool *ConnPool
}

const defaultTimeout = 30 * time.Second

// ErrTooManyRedirects is returned by GetFollow when the redirect chain
// exceeds MaxRedirects.
var ErrTooManyRedirects = errors.New("httpwire: too many redirects")

// Do sends req and returns the response. Redirects are not followed. The
// request's Connection header is forced to close.
func (c *Client) Do(ctx context.Context, req *Request) (*Response, error) {
	if c.Dial == nil {
		return nil, errors.New("httpwire: client has no dialer")
	}
	req = req.Clone()
	if c.UserAgent != "" && !req.Header.Has("User-Agent") {
		req.Header.Add("User-Agent", c.UserAgent)
	}
	if c.Pool == nil {
		req.Header.Set("Connection", "close")
	}

	host, port, err := c.targetEndpoint(req)
	if err != nil {
		return nil, err
	}
	if c.Proxy != nil {
		req.AsProxyForm()
	}

	timeout := c.Timeout
	if timeout == 0 {
		timeout = defaultTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	key := poolKey(host, port)
	if c.Pool != nil {
		if conn := c.Pool.get(key); conn != nil {
			resp, err := c.exchange(ctx, req, conn, key)
			if err == nil {
				return resp, nil
			}
			// The idle connection went stale while pooled; fall through
			// to a fresh dial.
		}
	}

	conn, err := c.Dial(ctx, host, port)
	if err != nil {
		return nil, err
	}
	return c.exchange(ctx, req, conn, key)
}

// exchange runs one request/response on conn and settles the
// connection's fate: parked in the pool when the exchange left it
// reusable, closed otherwise.
func (c *Client) exchange(ctx context.Context, req *Request, conn net.Conn, key string) (*Response, error) {
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl) //nolint:errcheck // best-effort
	}
	if _, err := req.WriteTo(conn); err != nil {
		conn.Close()
		return nil, fmt.Errorf("httpwire: write request: %w", err)
	}
	buf := GetReadBuffer()
	resp, err := ReadResponse(buf.Reader(conn), req.Method == "HEAD")
	buf.Release()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("httpwire: read response: %w", err)
	}
	if c.Pool != nil && reusable(req, resp) {
		conn.SetDeadline(time.Time{}) //nolint:errcheck // best-effort
		if c.Pool.put(key, conn) {
			return resp, nil
		}
	}
	conn.Close()
	return resp, nil
}

// targetEndpoint determines which transport endpoint to dial.
func (c *Client) targetEndpoint(req *Request) (string, uint16, error) {
	if c.Proxy != nil {
		return c.Proxy.Host, c.Proxy.Port, nil
	}
	hostport := req.Host()
	if hostport == "" {
		return "", 0, errors.New("httpwire: request has no host")
	}
	host := hostport
	port := uint16(80)
	if req.URL != nil && req.URL.Scheme == "https" {
		port = 443
	}
	if h, p, err := net.SplitHostPort(hostport); err == nil {
		n, err := strconv.ParseUint(p, 10, 16)
		if err != nil {
			return "", 0, fmt.Errorf("httpwire: bad port in host %q", hostport)
		}
		host, port = h, uint16(n)
	}
	return host, port, nil
}

// Get issues a GET for rawurl without following redirects.
func (c *Client) Get(ctx context.Context, rawurl string) (*Response, error) {
	req, err := NewRequest("GET", rawurl)
	if err != nil {
		return nil, err
	}
	return c.Do(ctx, req)
}

// GetFollow issues a GET and follows 3xx redirects, returning every
// response along the chain in order (the final response last). Measurement
// needs the whole chain: a Websense deployment reveals itself in an
// intermediate redirect to port 15871.
func (c *Client) GetFollow(ctx context.Context, rawurl string) ([]*Response, error) {
	maxR := c.MaxRedirects
	if maxR == 0 {
		maxR = 10
	}
	var chain []*Response
	cur := rawurl
	for hop := 0; ; hop++ {
		resp, err := c.Get(ctx, cur)
		if err != nil {
			return chain, err
		}
		chain = append(chain, resp)
		if resp.StatusCode < 300 || resp.StatusCode > 399 {
			return chain, nil
		}
		loc := resp.Header.Get("Location")
		if loc == "" {
			return chain, nil
		}
		next, err := resolveRedirect(cur, loc)
		if err != nil {
			return chain, nil // unfollowable Location: stop, keep chain
		}
		if hop+1 >= maxR {
			return chain, ErrTooManyRedirects
		}
		cur = next
	}
}

func resolveRedirect(base, loc string) (string, error) {
	bu, err := url.Parse(base)
	if err != nil {
		return "", err
	}
	lu, err := url.Parse(strings.TrimSpace(loc))
	if err != nil {
		return "", err
	}
	res := bu.ResolveReference(lu)
	if res.Scheme == "" || res.Host == "" {
		return "", fmt.Errorf("httpwire: unresolvable redirect %q", loc)
	}
	return res.String(), nil
}
