package httpwire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHeaderOrderAndCasePreserved(t *testing.T) {
	h := NewHeader("Via-Proxy", "mwg1", "X-Thing", "a", "via-other", "b")
	fields := h.Fields()
	if fields[0].Name != "Via-Proxy" || fields[1].Name != "X-Thing" || fields[2].Name != "via-other" {
		t.Fatalf("order/case not preserved: %+v", fields)
	}
}

func TestHeaderGetCaseInsensitive(t *testing.T) {
	h := NewHeader("Via-Proxy", "mwg1")
	if h.Get("via-proxy") != "mwg1" {
		t.Fatal("case-insensitive Get failed")
	}
	if h.Get("absent") != "" {
		t.Fatal("Get of absent header should be empty")
	}
}

func TestHeaderSetReplacesAll(t *testing.T) {
	h := NewHeader("X-A", "1", "x-a", "2", "X-B", "3")
	h.Set("X-A", "9")
	if got := h.Values("x-a"); len(got) != 1 || got[0] != "9" {
		t.Fatalf("Set left values %v", got)
	}
	if h.Get("X-B") != "3" {
		t.Fatal("Set clobbered unrelated header")
	}
}

func TestHeaderDel(t *testing.T) {
	h := NewHeader("X-A", "1", "x-A", "2", "X-B", "3")
	h.Del("x-a")
	if h.Has("X-A") {
		t.Fatal("Del left a field behind")
	}
	if !h.Has("X-B") {
		t.Fatal("Del removed unrelated field")
	}
}

func TestHeaderRawName(t *testing.T) {
	h := NewHeader("Via-Proxy", "x")
	raw, ok := h.RawName("via-proxy")
	if !ok || raw != "Via-Proxy" {
		t.Fatalf("RawName = %q, %v", raw, ok)
	}
}

func TestHeaderClone(t *testing.T) {
	h := NewHeader("A", "1")
	c := h.Clone()
	c.Set("A", "2")
	if h.Get("A") != "1" {
		t.Fatal("Clone shares storage with original")
	}
}

func TestNewHeaderOddPairsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd pairs did not panic")
		}
	}()
	NewHeader("only-name")
}

func roundtripRequest(t *testing.T, req *Request) *Request {
	t.Helper()
	var buf bytes.Buffer
	if _, err := req.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("ReadRequest: %v (wire: %q)", err, buf.String())
	}
	return got
}

func TestRequestRoundTrip(t *testing.T) {
	req, err := NewRequest("GET", "http://example.com/path/x?q=1")
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Add("X-Test", "yes")
	got := roundtripRequest(t, req)
	if got.Method != "GET" || got.Target != "/path/x?q=1" {
		t.Fatalf("got %s %s", got.Method, got.Target)
	}
	if got.Host() != "example.com" {
		t.Fatalf("Host = %q", got.Host())
	}
	if got.Header.Get("X-Test") != "yes" {
		t.Fatal("header lost in round trip")
	}
}

func TestRequestWithBodyRoundTrip(t *testing.T) {
	req, _ := NewRequest("POST", "http://example.com/submit")
	req.Body = []byte("url=http%3A%2F%2Fx.info&category=pornography")
	got := roundtripRequest(t, req)
	if !bytes.Equal(got.Body, req.Body) {
		t.Fatalf("body = %q, want %q", got.Body, req.Body)
	}
}

func TestProxyFormRequest(t *testing.T) {
	req, _ := NewRequest("GET", "http://example.com/p")
	req.AsProxyForm()
	if req.Target != "http://example.com/p" {
		t.Fatalf("proxy target = %q", req.Target)
	}
	got := roundtripRequest(t, req)
	if got.URL == nil || !got.URL.IsAbs() {
		t.Fatal("absolute-form target not parsed as absolute")
	}
	if got.Hostname() != "example.com" {
		t.Fatalf("Hostname = %q", got.Hostname())
	}
}

func TestRequestFullURL(t *testing.T) {
	req, _ := NewRequest("GET", "http://starwasher.info/index.php?a=b")
	got := roundtripRequest(t, req)
	if got.FullURL() != "http://starwasher.info/index.php?a=b" {
		t.Fatalf("FullURL = %q", got.FullURL())
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := NewResponse(403, NewHeader("Content-Type", "text/html", "Via-Proxy", "mwg1"), []byte("<html>blocked</html>"))
	var buf bytes.Buffer
	if _, err := resp.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadResponse(bufio.NewReader(&buf), false)
	if err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	if got.StatusCode != 403 || got.Reason != "Forbidden" {
		t.Fatalf("status = %d %q", got.StatusCode, got.Reason)
	}
	if got.Header.Get("Via-Proxy") != "mwg1" {
		t.Fatal("Via-Proxy header lost")
	}
	if string(got.Body) != "<html>blocked</html>" {
		t.Fatalf("body = %q", got.Body)
	}
}

func TestResponseRawHeadPreserved(t *testing.T) {
	wire := "HTTP/1.1 200 OK\r\nVia-Proxy: MWG\r\nServer: Test\r\nContent-Length: 2\r\n\r\nhi"
	got, err := ReadResponse(bufio.NewReader(strings.NewReader(wire)), false)
	if err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	if !strings.Contains(string(got.RawHead), "Via-Proxy: MWG\r\n") {
		t.Fatalf("RawHead lost exact bytes: %q", got.RawHead)
	}
	if strings.Contains(string(got.RawHead), "hi") {
		t.Fatal("RawHead includes body")
	}
}

func TestChunkedResponse(t *testing.T) {
	wire := "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n"
	got, err := ReadResponse(bufio.NewReader(strings.NewReader(wire)), false)
	if err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	if string(got.Body) != "Wikipedia" {
		t.Fatalf("body = %q", got.Body)
	}
}

func TestChunkedWriteRoundTrip(t *testing.T) {
	body := bytes.Repeat([]byte("abcdefgh"), 3000) // multiple chunks
	resp := NewResponse(200, NewHeader("Transfer-Encoding", "chunked"), body)
	var buf bytes.Buffer
	if _, err := resp.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadResponse(bufio.NewReader(&buf), false)
	if err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	if !bytes.Equal(got.Body, body) {
		t.Fatalf("chunked round trip lost data: %d vs %d bytes", len(got.Body), len(body))
	}
}

func TestMalformedChunk(t *testing.T) {
	wire := "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n\r\n"
	_, err := ReadResponse(bufio.NewReader(strings.NewReader(wire)), false)
	if !errors.Is(err, ErrBadChunk) {
		t.Fatalf("err = %v, want ErrBadChunk", err)
	}
}

func TestReadToEOFBody(t *testing.T) {
	wire := "HTTP/1.1 200 OK\r\nServer: old\r\n\r\nunfamed body until close"
	got, err := ReadResponse(bufio.NewReader(strings.NewReader(wire)), false)
	if err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	if string(got.Body) != "unfamed body until close" {
		t.Fatalf("body = %q", got.Body)
	}
}

func TestHEADResponseHasNoBody(t *testing.T) {
	wire := "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n"
	got, err := ReadResponse(bufio.NewReader(strings.NewReader(wire)), true)
	if err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	if len(got.Body) != 0 {
		t.Fatalf("HEAD body = %q", got.Body)
	}
}

func TestNoBodyStatuses(t *testing.T) {
	for _, code := range []string{"204 No Content", "304 Not Modified"} {
		wire := "HTTP/1.1 " + code + "\r\n\r\n"
		if _, err := ReadResponse(bufio.NewReader(strings.NewReader(wire)), false); err != nil {
			t.Fatalf("ReadResponse(%s): %v", code, err)
		}
	}
}

func TestMalformedStartLine(t *testing.T) {
	for _, wire := range []string{"GARBAGE\r\n\r\n", "HTTP/1.1\r\n\r\n", "HTTP/1.1 abc OK\r\n\r\n"} {
		if _, err := ReadResponse(bufio.NewReader(strings.NewReader(wire)), false); err == nil {
			t.Fatalf("ReadResponse(%q) succeeded", wire)
		}
	}
	for _, wire := range []string{"GET\r\n\r\n", "GET /\r\n\r\n", " / HTTP/1.1\r\n\r\n"} {
		if _, err := ReadRequest(bufio.NewReader(strings.NewReader(wire))); err == nil {
			t.Fatalf("ReadRequest(%q) succeeded", wire)
		}
	}
}

func TestMalformedHeaderRejected(t *testing.T) {
	wire := "GET / HTTP/1.1\r\nHost: x\r\nbad header line\r\n\r\n"
	if _, err := ReadRequest(bufio.NewReader(strings.NewReader(wire))); !errors.Is(err, ErrMalformedHeader) {
		t.Fatalf("err = %v, want ErrMalformedHeader", err)
	}
}

func TestBadContentLength(t *testing.T) {
	wire := "HTTP/1.1 200 OK\r\nContent-Length: nope\r\n\r\n"
	if _, err := ReadResponse(bufio.NewReader(strings.NewReader(wire)), false); !errors.Is(err, ErrBadContentLength) {
		t.Fatalf("err = %v, want ErrBadContentLength", err)
	}
}

func TestOversizeBodyRejected(t *testing.T) {
	wire := "HTTP/1.1 200 OK\r\nContent-Length: 99999999\r\n\r\n"
	if _, err := ReadResponse(bufio.NewReader(strings.NewReader(wire)), false); !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("err = %v, want ErrBodyTooLarge", err)
	}
}

func TestStatusReason(t *testing.T) {
	cases := map[int]string{200: "OK", 302: "Found", 403: "Forbidden", 404: "Not Found", 502: "Bad Gateway", 999: "Unknown"}
	for code, want := range cases {
		if got := StatusReason(code); got != want {
			t.Fatalf("StatusReason(%d) = %q, want %q", code, got, want)
		}
	}
}

// memListener pairs an in-memory conn with a Dialer for client/server tests.
type memListener struct {
	conns  chan net.Conn
	closed chan struct{}
}

func newMemListener() *memListener {
	return &memListener{conns: make(chan net.Conn, 16), closed: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}
func (l *memListener) Close() error {
	select {
	case <-l.closed:
	default:
		close(l.closed)
	}
	return nil
}
func (l *memListener) Addr() net.Addr { return &net.TCPAddr{} }

func (l *memListener) dialer() Dialer {
	return func(ctx context.Context, host string, port uint16) (net.Conn, error) {
		client, server := net.Pipe()
		select {
		case l.conns <- server:
			return client, nil
		case <-l.closed:
			return nil, net.ErrClosed
		}
	}
}

func TestClientServerExchange(t *testing.T) {
	l := newMemListener()
	defer l.Close()
	srv := &Server{
		Handler: HandlerFunc(func(req *Request) *Response {
			return NewResponse(200, NewHeader("Content-Type", "text/plain"), []byte("hello "+req.Hostname()))
		}),
		ServerHeader: "TestServer/1.0",
	}
	go srv.Serve(l) //nolint:errcheck // ends with listener

	c := &Client{Dial: l.dialer(), Timeout: 2 * time.Second}
	resp, err := c.Get(context.Background(), "http://example.com/")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if resp.StatusCode != 200 || string(resp.Body) != "hello example.com" {
		t.Fatalf("resp = %d %q", resp.StatusCode, resp.Body)
	}
	if resp.Header.Get("Server") != "TestServer/1.0" {
		t.Fatal("ServerHeader not applied")
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	l := newMemListener()
	defer l.Close()
	srv := &Server{Handler: HandlerFunc(func(req *Request) *Response {
		return NewResponse(200, nil, nil)
	})}
	go srv.Serve(l) //nolint:errcheck // ends with listener

	conn, err := l.dialer()(context.Background(), "x", 80)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.Write([]byte("NOT HTTP AT ALL\r\n\r\n")) //nolint:errcheck // test
	resp, err := ReadResponse(bufio.NewReader(conn), false)
	if err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestServerSilentDropOnNilResponse(t *testing.T) {
	l := newMemListener()
	defer l.Close()
	srv := &Server{Handler: HandlerFunc(func(req *Request) *Response { return nil })}
	go srv.Serve(l) //nolint:errcheck // ends with listener

	conn, _ := l.dialer()(context.Background(), "x", 80)
	defer conn.Close()
	req, _ := NewRequest("GET", "http://x/")
	req.WriteTo(conn) //nolint:errcheck // test
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond)) //nolint:errcheck // test
	if _, err := conn.Read(buf); err != io.EOF {
		t.Fatalf("Read err = %v, want EOF (silent drop)", err)
	}
}

func TestClientFollowRedirects(t *testing.T) {
	l := newMemListener()
	defer l.Close()
	srv := &Server{Handler: HandlerFunc(func(req *Request) *Response {
		switch req.Path() {
		case "/start":
			return NewResponse(302, NewHeader("Location", "http://example.com/mid"), nil)
		case "/mid":
			return NewResponse(302, NewHeader("Location", "/end"), nil)
		default:
			return NewResponse(200, nil, []byte("final"))
		}
	})}
	go srv.Serve(l) //nolint:errcheck // ends with listener

	c := &Client{Dial: l.dialer(), Timeout: 2 * time.Second}
	chain, err := c.GetFollow(context.Background(), "http://example.com/start")
	if err != nil {
		t.Fatalf("GetFollow: %v", err)
	}
	if len(chain) != 3 {
		t.Fatalf("chain length = %d, want 3", len(chain))
	}
	if string(chain[2].Body) != "final" {
		t.Fatalf("final body = %q", chain[2].Body)
	}
}

func TestClientRedirectLoopBounded(t *testing.T) {
	l := newMemListener()
	defer l.Close()
	srv := &Server{Handler: HandlerFunc(func(req *Request) *Response {
		return NewResponse(302, NewHeader("Location", "http://example.com/loop"), nil)
	})}
	go srv.Serve(l) //nolint:errcheck // ends with listener

	c := &Client{Dial: l.dialer(), Timeout: 2 * time.Second}
	chain, err := c.GetFollow(context.Background(), "http://example.com/loop")
	if !errors.Is(err, ErrTooManyRedirects) || len(chain) != maxRedirects {
		t.Fatalf("err = %v after %d responses, want ErrTooManyRedirects after %d", err, len(chain), maxRedirects)
	}
}

func TestClientProxyMode(t *testing.T) {
	l := newMemListener()
	defer l.Close()
	var sawTarget string
	srv := &Server{Handler: HandlerFunc(func(req *Request) *Response {
		sawTarget = req.Target
		return NewResponse(200, nil, []byte("proxied"))
	})}
	go srv.Serve(l) //nolint:errcheck // ends with listener

	c := &Client{Dial: l.dialer(), Timeout: 2 * time.Second, Proxy: &Proxy{Host: "proxy.test", Port: 8080}}
	resp, err := c.Get(context.Background(), "http://origin.example/page")
	if err != nil {
		t.Fatalf("Get via proxy: %v", err)
	}
	if string(resp.Body) != "proxied" {
		t.Fatalf("body = %q", resp.Body)
	}
	if sawTarget != "http://origin.example/page" {
		t.Fatalf("proxy saw target %q, want absolute-form", sawTarget)
	}
}

func TestMuxRouting(t *testing.T) {
	m := &Mux{}
	m.RouteFunc("/exact", func(*Request) *Response { return NewResponse(200, nil, []byte("exact")) })
	m.RouteFunc("/pre/", func(*Request) *Response { return NewResponse(200, nil, []byte("prefix")) })
	m.RouteFunc("/pre/deeper/", func(*Request) *Response { return NewResponse(200, nil, []byte("deeper")) })

	cases := map[string]string{
		"/exact":           "exact",
		"/pre/x":           "prefix",
		"/pre/deeper/file": "deeper",
	}
	for path, want := range cases {
		req := &Request{Method: "GET", Target: path}
		wire := "GET " + path + " HTTP/1.1\r\nHost: h\r\n\r\n"
		parsed, err := ReadRequest(bufio.NewReader(strings.NewReader(wire)))
		if err != nil {
			t.Fatalf("ReadRequest: %v", err)
		}
		_ = req
		resp := m.Handle(parsed)
		if string(resp.Body) != want {
			t.Fatalf("mux(%q) = %q, want %q", path, resp.Body, want)
		}
	}
	// Unmatched path -> 404.
	wire := "GET /nope HTTP/1.1\r\nHost: h\r\n\r\n"
	parsed, _ := ReadRequest(bufio.NewReader(strings.NewReader(wire)))
	if resp := m.Handle(parsed); resp.StatusCode != 404 {
		t.Fatalf("unmatched status = %d", resp.StatusCode)
	}
}

func TestMuxBadPatternPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad pattern did not panic")
		}
	}()
	new(Mux).RouteFunc("nope", func(*Request) *Response { return nil })
}

// TestZeroMuxRoutesAndServes pins the Mux doc's "the zero value is
// usable": a declared Mux takes routes and serves them through a Server,
// and answers an unrouted path with a 404.
func TestZeroMuxRoutesAndServes(t *testing.T) {
	var m Mux
	m.RouteFunc("/zero", func(*Request) *Response { return NewResponse(200, nil, []byte("zero")) })
	l := newMemListener()
	defer l.Close()
	go (&Server{Handler: &m}).Serve(l) //nolint:errcheck // ends with listener

	conn, _ := l.dialer()(context.Background(), "x", 80)
	defer conn.Close()
	br := bufio.NewReader(conn)
	for path, want := range map[string]int{"/zero": 200, "/other": 404} {
		req, _ := NewRequest("GET", "http://x"+path)
		if _, err := req.WriteTo(conn); err != nil {
			t.Fatalf("write %s: %v", path, err)
		}
		resp, err := ReadResponse(br, false)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if resp.StatusCode != want {
			t.Fatalf("GET %s status = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestKeepAliveMultipleRequests(t *testing.T) {
	l := newMemListener()
	defer l.Close()
	count := 0
	srv := &Server{Handler: HandlerFunc(func(req *Request) *Response {
		count++
		return NewResponse(200, nil, []byte("r"))
	})}
	go srv.Serve(l) //nolint:errcheck // ends with listener

	conn, _ := l.dialer()(context.Background(), "x", 80)
	defer conn.Close()
	br := bufio.NewReader(conn)
	for i := 0; i < 3; i++ {
		req, _ := NewRequest("GET", "http://x/")
		if _, err := req.WriteTo(conn); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if _, err := ReadResponse(br, false); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if count != 3 {
		t.Fatalf("server handled %d requests on one conn, want 3", count)
	}
}

func TestHeaderPropertyGetAfterAdd(t *testing.T) {
	f := func(name, value string) bool {
		if name == "" || strings.ContainsAny(name, ": \t\r\n") || strings.ContainsAny(value, "\r\n") {
			return true // skip invalid header shapes
		}
		h := &Header{}
		h.Add(name, value)
		return h.Get(name) == strings.TrimSpace(value) || h.Get(name) == value
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(pathSeed uint16, body []byte) bool {
		if len(body) > 1<<16 {
			body = body[:1<<16]
		}
		path := "/p" + strings.Repeat("x", int(pathSeed%64))
		req, err := NewRequest("POST", "http://h.example"+path)
		if err != nil {
			return false
		}
		req.Body = body
		var buf bytes.Buffer
		if _, err := req.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadRequest(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		return got.Path() == path && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
