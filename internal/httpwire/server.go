package httpwire

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"time"
)

// Handler produces a response for a request. Returning nil drops the
// connection without answering (how some middleboxes censor, though the
// products in this study prefer explicit block pages — §4.1 notes they
// "explicitly state that content has been censored").
type Handler interface {
	Handle(req *Request) *Response
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(*Request) *Response

// Handle implements Handler.
func (f HandlerFunc) Handle(req *Request) *Response { return f(req) }

// Server serves HTTP/1.1 with keep-alive support. ServeConn serves one
// connection, which is all a simulated port needs; Serve runs an accept
// loop over a real net.Listener.
type Server struct {
	Handler Handler
	// ServerHeader, if non-empty, is added to responses lacking a Server
	// header. Products use it to emit their banner.
	ServerHeader string
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.ServeConn(conn)
	}
}

// readTimeout bounds reading one request.
const readTimeout = 30 * time.Second

// ServeConn serves one connection: a keep-alive loop of request/response
// exchanges until close, error, or "Connection: close".
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	buf := GetReadBuffer()
	defer buf.Release()
	br := buf.Reader(conn)
	for {
		conn.SetReadDeadline(time.Now().Add(readTimeout)) //nolint:errcheck // best-effort
		req, err := ReadRequest(br)
		if err != nil {
			if isWireError(err) {
				resp := NewResponse(400, NewHeader("Connection", "close"), []byte("bad request\n"))
				resp.WriteTo(conn) //nolint:errcheck // peer may already be gone
			}
			return
		}
		req.RemoteAddr = conn.RemoteAddr()

		resp := s.Handler.Handle(req)
		if resp == nil {
			return // silent drop
		}
		clientClose := strings.EqualFold(req.Header.Get("Connection"), "close")
		serverClose := strings.EqualFold(resp.Header.Get("Connection"), "close")
		if s.ServerHeader != "" && !resp.Header.Has("Server") {
			resp.Header.Add("Server", s.ServerHeader)
		}
		if clientClose && !serverClose {
			resp.Header.Set("Connection", "close")
			serverClose = true
		}
		if _, err := resp.WriteTo(conn); err != nil {
			return
		}
		if clientClose || serverClose {
			return
		}
	}
}

// isWireError reports whether err stems from malformed client bytes (as
// opposed to a clean close or timeout), warranting a 400.
func isWireError(err error) bool {
	switch {
	case errors.Is(err, ErrMalformedStartLine),
		errors.Is(err, ErrMalformedHeader),
		errors.Is(err, ErrHeaderTooLarge),
		errors.Is(err, ErrBadChunk),
		errors.Is(err, ErrBadContentLength),
		errors.Is(err, ErrBodyTooLarge):
		return true
	case errors.Is(err, os.ErrDeadlineExceeded):
		return false
	default:
		return false
	}
}

// Mux routes requests by path. Patterns ending in "/" match by prefix;
// other patterns match exactly. The longest pattern wins. The zero value
// is usable.
type Mux struct {
	exact  map[string]Handler
	prefix map[string]Handler
}

// Route registers handler for pattern.
func (m *Mux) Route(pattern string, handler Handler) {
	if pattern == "" || pattern[0] != '/' {
		panic(fmt.Sprintf("httpwire: invalid mux pattern %q", pattern))
	}
	if m.exact == nil {
		m.exact, m.prefix = make(map[string]Handler), make(map[string]Handler)
	}
	if strings.HasSuffix(pattern, "/") {
		m.prefix[pattern] = handler
	} else {
		m.exact[pattern] = handler
	}
}

// RouteFunc registers a function for pattern.
func (m *Mux) RouteFunc(pattern string, f func(*Request) *Response) {
	m.Route(pattern, HandlerFunc(f))
}

// Handle implements Handler by dispatching on the request path.
func (m *Mux) Handle(req *Request) *Response {
	path := req.Path()
	if h, ok := m.exact[path]; ok {
		return h.Handle(req)
	}
	var bestPat string
	var best Handler
	for pat, h := range m.prefix {
		if strings.HasPrefix(path, pat) && len(pat) > len(bestPat) {
			bestPat, best = pat, h
		}
	}
	if best != nil {
		return best.Handle(req)
	}
	return NewResponse(404, NewHeader("Content-Type", "text/plain"), []byte("not found\n"))
}
