package httpwire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"strconv"
	"strings"
)

// Parsing limits; generous for the simulated world, tight enough to bound
// hostile input when the codec faces real sockets.
const (
	maxStartLine   = 8 << 10
	maxHeaderBytes = 64 << 10
	maxHeaderCount = 256
	// MaxBodyBytes bounds bodies read into memory.
	MaxBodyBytes = 4 << 20
)

// Errors returned by the parsers.
var (
	ErrMalformedStartLine = errors.New("httpwire: malformed start line")
	ErrMalformedHeader    = errors.New("httpwire: malformed header")
	ErrHeaderTooLarge     = errors.New("httpwire: header block too large")
	ErrBodyTooLarge       = errors.New("httpwire: body too large")
	ErrBadChunk           = errors.New("httpwire: malformed chunked encoding")
	ErrBadContentLength   = errors.New("httpwire: malformed Content-Length")
)

// Request is an HTTP/1.1 request with the body held in memory.
type Request struct {
	Method string
	// Target is the request-target exactly as sent: origin-form ("/path")
	// for direct requests or absolute-form ("http://host/path") for
	// explicit-proxy requests.
	Target string
	Proto  string
	Header *Header
	Body   []byte

	// URL is the parsed form of Target (with Host filled from the Host
	// header for origin-form targets). Populated by ReadRequest and
	// NewRequest.
	URL *url.URL
	// RemoteAddr is the peer address, populated by the server.
	RemoteAddr net.Addr
}

// NewRequest builds a request for the given absolute URL. The target is
// origin-form; use AsProxyForm for explicit-proxy requests.
func NewRequest(method, rawurl string) (*Request, error) {
	u, err := url.Parse(rawurl)
	if err != nil {
		return nil, fmt.Errorf("httpwire: parse url: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("httpwire: request URL must be absolute: %q", rawurl)
	}
	target := u.RequestURI()
	r := &Request{
		Method: method,
		Target: target,
		Proto:  "HTTP/1.1",
		Header: NewHeader("Host", u.Host),
		URL:    u,
	}
	return r, nil
}

// Host returns the authority the request addresses: the Host header if
// present, else the URL host.
func (r *Request) Host() string {
	if h := r.Header.Get("Host"); h != "" {
		return h
	}
	if r.URL != nil {
		return r.URL.Host
	}
	return ""
}

// Hostname returns Host without any port.
func (r *Request) Hostname() string {
	return stripPort(r.Host())
}

// Path returns the URL path ("/" if empty).
func (r *Request) Path() string {
	if r.URL == nil || r.URL.Path == "" {
		return "/"
	}
	return r.URL.Path
}

// FullURL reconstructs the absolute URL the client requested.
func (r *Request) FullURL() string {
	if r.URL != nil && r.URL.IsAbs() {
		return r.URL.String()
	}
	u := url.URL{Scheme: "http", Host: r.Host()}
	if r.URL != nil {
		u.Path = r.URL.Path
		u.RawQuery = r.URL.RawQuery
	} else {
		u.Path = r.Target
	}
	return u.String()
}

// AsProxyForm rewrites the target to absolute-form for transmission to an
// explicit proxy.
func (r *Request) AsProxyForm() {
	if r.URL != nil && !r.URL.IsAbs() {
		abs := *r.URL
		abs.Scheme = "http"
		abs.Host = r.Host()
		r.URL = &abs
	}
	if r.URL != nil {
		r.Target = r.URL.String()
	}
}

// Clone returns a deep copy of the request.
func (r *Request) Clone() *Request {
	c := *r
	c.Header = r.Header.Clone()
	c.Body = bytes.Clone(r.Body)
	if r.URL != nil {
		u := *r.URL
		c.URL = &u
	}
	return &c
}

// WriteTo serializes the request, setting Content-Length from the body.
func (r *Request) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	target := r.Target
	if target == "" {
		target = "/"
	}
	b.WriteString(r.Method)
	b.WriteByte(' ')
	b.WriteString(target)
	b.WriteByte(' ')
	b.WriteString(proto)
	b.WriteString("\r\n")
	hdr := r.Header
	if hdr == nil {
		hdr = &Header{}
	}
	// A request parsed off the wire may carry its original chunked
	// framing header with the body already decoded; re-chunk on write so
	// the serialized form stays parseable (the reader gives
	// Transfer-Encoding precedence over Content-Length).
	chunked := strings.EqualFold(hdr.Get("Transfer-Encoding"), "chunked")
	if !chunked && (len(r.Body) > 0 || r.Method == "POST" || r.Method == "PUT") {
		if !hdr.Has("Content-Length") {
			hdr = hdr.Clone()
			hdr.Set("Content-Length", strconv.Itoa(len(r.Body)))
		}
	}
	hdr.writeTo(&b)
	b.WriteString("\r\n")
	n, err := io.WriteString(w, b.String())
	total := int64(n)
	if err != nil {
		return total, err
	}
	if chunked {
		m, err := writeChunked(w, r.Body)
		return total + m, err
	}
	if len(r.Body) == 0 {
		return total, nil
	}
	m, err := w.Write(r.Body)
	return total + int64(m), err
}

// ReadRequest parses one request from br.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	method, rest, ok := strings.Cut(line, " ")
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrMalformedStartLine, line)
	}
	target, proto, ok := strings.Cut(rest, " ")
	if !ok || !strings.HasPrefix(proto, "HTTP/") || method == "" || target == "" {
		return nil, fmt.Errorf("%w: %q", ErrMalformedStartLine, line)
	}
	hdr, err := readHeaderBlock(br)
	if err != nil {
		return nil, err
	}
	req := &Request{Method: method, Target: target, Proto: proto, Header: hdr}

	if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") {
		u, err := url.Parse(target)
		if err != nil {
			return nil, fmt.Errorf("%w: bad absolute target: %v", ErrMalformedStartLine, err)
		}
		req.URL = u
	} else {
		u, err := url.ParseRequestURI(target)
		if err != nil {
			// Tolerate junk targets (scanners send them); keep raw form.
			u = &url.URL{Path: target}
		}
		u.Host = hdr.Get("Host")
		req.URL = u
	}

	body, err := readBody(br, hdr, method == "HEAD", true)
	if err != nil {
		return nil, err
	}
	req.Body = body
	return req, nil
}

// Response is an HTTP/1.1 response with the body held in memory.
type Response struct {
	Proto      string
	StatusCode int
	Reason     string
	Header     *Header
	Body       []byte

	// RawHead holds the exact status line and header bytes as read off the
	// wire (through the blank line). This is what a Shodan-style banner
	// index stores. Populated by ReadResponse; empty for locally
	// constructed responses until WriteTo fills it.
	RawHead []byte
}

// NewResponse builds a response with the given status and body.
func NewResponse(status int, header *Header, body []byte) *Response {
	if header == nil {
		header = &Header{}
	}
	return &Response{
		Proto:      "HTTP/1.1",
		StatusCode: status,
		Reason:     StatusReason(status),
		Header:     header,
		Body:       body,
	}
}

// Status returns e.g. "200 OK".
func (r *Response) Status() string {
	return fmt.Sprintf("%d %s", r.StatusCode, r.Reason)
}

// Clone returns a deep copy of the response.
func (r *Response) Clone() *Response {
	c := *r
	c.Header = r.Header.Clone()
	c.Body = bytes.Clone(r.Body)
	c.RawHead = bytes.Clone(r.RawHead)
	return &c
}

// WriteTo serializes the response, setting Content-Length from the body,
// and records the serialized head in RawHead.
func (r *Response) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	reason := r.Reason
	if reason == "" {
		reason = StatusReason(r.StatusCode)
	}
	fmt.Fprintf(&b, "%s %d %s\r\n", proto, r.StatusCode, reason)
	hdr := r.Header
	if hdr == nil {
		hdr = &Header{}
	}
	if !hdr.Has("Content-Length") && !strings.EqualFold(hdr.Get("Transfer-Encoding"), "chunked") {
		hdr = hdr.Clone()
		hdr.Set("Content-Length", strconv.Itoa(len(r.Body)))
	}
	hdr.writeTo(&b)
	b.WriteString("\r\n")
	head := b.String()
	r.RawHead = []byte(head)
	n, err := io.WriteString(w, head)
	total := int64(n)
	if err != nil {
		return total, err
	}
	if strings.EqualFold(hdr.Get("Transfer-Encoding"), "chunked") {
		m, err := writeChunked(w, r.Body)
		return total + m, err
	}
	if len(r.Body) == 0 {
		return total, nil
	}
	m, err := w.Write(r.Body)
	return total + int64(m), err
}

// ReadResponse parses one response from br. isHEAD suppresses body reading
// for responses to HEAD requests. The returned response owns its memory;
// hot loops that do not retain responses should prefer
// ReadResponseBuffered, which reuses pooled buffers.
func ReadResponse(br *bufio.Reader, isHEAD bool) (*Response, error) {
	var raw bytes.Buffer
	resp, _, err := readResponseCore(br, isHEAD, &raw, nil)
	if err != nil {
		return nil, err
	}
	resp.RawHead = bytes.Clone(resp.RawHead)
	return resp, nil
}

// readResponseCore parses a response. raw accumulates the head bytes and
// the returned response's RawHead ALIASES raw's storage (callers that
// hand out the response must clone it). When arena is non-nil the body is
// read into it (the response borrows it; the grown arena is returned for
// reuse); when nil the body is freshly allocated and owned.
func readResponseCore(br *bufio.Reader, isHEAD bool, raw *bytes.Buffer, arena []byte) (*Response, []byte, error) {
	line, err := readLineRaw(br, raw)
	if err != nil {
		return nil, arena, err
	}
	proto, rest, ok := strings.Cut(line, " ")
	if !ok || !strings.HasPrefix(proto, "HTTP/") {
		return nil, arena, fmt.Errorf("%w: %q", ErrMalformedStartLine, line)
	}
	codeStr, reason, _ := strings.Cut(rest, " ")
	code, err := strconv.Atoi(codeStr)
	if err != nil || code < 100 || code > 999 {
		return nil, arena, fmt.Errorf("%w: bad status %q", ErrMalformedStartLine, rest)
	}
	hdr, err := readHeaderBlockRaw(br, raw)
	if err != nil {
		return nil, arena, err
	}
	resp := &Response{Proto: proto, StatusCode: code, Reason: reason, Header: hdr, RawHead: raw.Bytes()}

	noBody := isHEAD || code == 204 || code == 304 || (code >= 100 && code < 200)
	if noBody {
		return resp, arena, nil
	}
	var dst []byte
	if arena != nil {
		dst = arena[:0]
	}
	body, err := readBodyInto(br, hdr, false, dst)
	if arena != nil && cap(body) > cap(arena) {
		arena = body[:0]
	}
	if err != nil {
		return nil, arena, err
	}
	resp.Body = body
	return resp, arena, nil
}

// readLine reads one CRLF- (or LF-) terminated line, bounded.
func readLine(br *bufio.Reader) (string, error) {
	return readLineRaw(br, nil)
}

func readLineRaw(br *bufio.Reader, raw *bytes.Buffer) (string, error) {
	var b []byte
	for {
		chunk, err := br.ReadSlice('\n')
		if raw != nil {
			raw.Write(chunk)
		}
		if err == nil && b == nil {
			// The whole line sat in the buffer: the string conversion
			// below is its only copy.
			b = chunk
			break
		}
		b = append(b, chunk...)
		if err == nil {
			break
		}
		if err == bufio.ErrBufferFull {
			if len(b) > maxStartLine {
				return "", ErrHeaderTooLarge
			}
			continue
		}
		if err == io.EOF && len(b) > 0 {
			return "", io.ErrUnexpectedEOF
		}
		return "", err
	}
	if len(b) > maxStartLine {
		return "", ErrHeaderTooLarge
	}
	return string(bytes.TrimRight(b, "\r\n")), nil
}

func readHeaderBlock(br *bufio.Reader) (*Header, error) {
	return readHeaderBlockRaw(br, nil)
}

func readHeaderBlockRaw(br *bufio.Reader, raw *bytes.Buffer) (*Header, error) {
	hdr := &Header{}
	total := 0
	for {
		line, err := readLineRaw(br, raw)
		if err != nil {
			return nil, err
		}
		if line == "" {
			return hdr, nil
		}
		total += len(line)
		if total > maxHeaderBytes || hdr.Len() >= maxHeaderCount {
			return nil, ErrHeaderTooLarge
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok || name == "" || strings.ContainsAny(name, " \t") {
			return nil, fmt.Errorf("%w: %q", ErrMalformedHeader, line)
		}
		hdr.Add(name, strings.TrimSpace(value))
	}
}

// readBody consumes the message body per Content-Length / chunked /
// read-to-EOF framing rules. isRequest selects the request rule: a request
// without explicit framing has no body (RFC 7230 §3.3.3), whereas an
// unframed response is delimited by connection close.
func readBody(br *bufio.Reader, hdr *Header, suppress, isRequest bool) ([]byte, error) {
	if suppress {
		return nil, nil
	}
	return readBodyInto(br, hdr, isRequest, nil)
}

// readBodyInto is readBody with the destination supplied by the caller:
// the body is appended into dst (grown as needed), so pooled arenas can
// absorb the read. A nil dst allocates fresh storage, preserving the
// owned-path behavior.
func readBodyInto(br *bufio.Reader, hdr *Header, isRequest bool, dst []byte) ([]byte, error) {
	if strings.EqualFold(hdr.Get("Transfer-Encoding"), "chunked") {
		return readChunkedInto(br, dst)
	}
	if cl := hdr.Get("Content-Length"); cl != "" {
		n, err := strconv.ParseInt(strings.TrimSpace(cl), 10, 64)
		if err != nil || n < 0 {
			return nil, ErrBadContentLength
		}
		if n > MaxBodyBytes {
			return nil, ErrBodyTooLarge
		}
		if int64(cap(dst)) >= n {
			dst = dst[:n]
		} else {
			dst = make([]byte, n)
		}
		if _, err := io.ReadFull(br, dst); err != nil {
			return nil, err
		}
		return dst, nil
	}
	if isRequest {
		return nil, nil
	}
	// Read to EOF, bounded. Mirrors io.ReadAll but reuses dst's capacity.
	if dst == nil {
		dst = []byte{}
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := br.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if len(dst) > MaxBodyBytes {
			return nil, ErrBodyTooLarge
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

func readChunked(br *bufio.Reader) ([]byte, error) {
	return readChunkedInto(br, nil)
}

func readChunkedInto(br *bufio.Reader, out []byte) ([]byte, error) {
	for {
		line, err := readLine(br)
		if err != nil {
			return nil, err
		}
		sizeStr, _, _ := strings.Cut(line, ";")
		size, err := strconv.ParseInt(strings.TrimSpace(sizeStr), 16, 64)
		if err != nil || size < 0 {
			return nil, ErrBadChunk
		}
		if size == 0 {
			// Trailer section: read until blank line.
			for {
				tl, err := readLine(br)
				if err != nil {
					return nil, err
				}
				if tl == "" {
					// A zero-chunk body is nil whether or not an arena
					// was supplied; the caller keeps its arena capacity.
					if len(out) == 0 {
						return nil, nil
					}
					return out, nil
				}
			}
		}
		if int64(len(out))+size > MaxBodyBytes {
			return nil, ErrBodyTooLarge
		}
		start := len(out)
		need := start + int(size)
		for cap(out) < need {
			out = append(out[:cap(out)], 0)
		}
		out = out[:need]
		if _, err := io.ReadFull(br, out[start:]); err != nil {
			return nil, err
		}
		var crlf [2]byte
		if _, err := io.ReadFull(br, crlf[:]); err != nil {
			return nil, err
		}
		if crlf[0] != '\r' || crlf[1] != '\n' {
			return nil, ErrBadChunk
		}
	}
}

func writeChunked(w io.Writer, body []byte) (int64, error) {
	var total int64
	const chunkSize = 8 << 10
	for len(body) > 0 {
		n := min(chunkSize, len(body))
		m, err := fmt.Fprintf(w, "%x\r\n", n)
		total += int64(m)
		if err != nil {
			return total, err
		}
		m, err = w.Write(body[:n])
		total += int64(m)
		if err != nil {
			return total, err
		}
		m, err = io.WriteString(w, "\r\n")
		total += int64(m)
		if err != nil {
			return total, err
		}
		body = body[n:]
	}
	m, err := io.WriteString(w, "0\r\n\r\n")
	return total + int64(m), err
}

func stripPort(hostport string) string {
	if i := strings.LastIndexByte(hostport, ':'); i >= 0 && !strings.Contains(hostport[i:], "]") {
		return hostport[:i]
	}
	return hostport
}

// StatusReason returns the canonical reason phrase for an HTTP status code.
func StatusReason(code int) string {
	switch code {
	case 200:
		return "OK"
	case 201:
		return "Created"
	case 202:
		return "Accepted"
	case 204:
		return "No Content"
	case 301:
		return "Moved Permanently"
	case 302:
		return "Found"
	case 303:
		return "See Other"
	case 304:
		return "Not Modified"
	case 307:
		return "Temporary Redirect"
	case 400:
		return "Bad Request"
	case 401:
		return "Unauthorized"
	case 403:
		return "Forbidden"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 407:
		return "Proxy Authentication Required"
	case 408:
		return "Request Timeout"
	case 429:
		return "Too Many Requests"
	case 500:
		return "Internal Server Error"
	case 501:
		return "Not Implemented"
	case 502:
		return "Bad Gateway"
	case 503:
		return "Service Unavailable"
	case 504:
		return "Gateway Timeout"
	default:
		return "Unknown"
	}
}
