package httpwire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
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
	hdr := &Header{}
	frame, err := readFields(br, nil, hdr)
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

	if method != "HEAD" {
		if req.Body, err = readBody(br, frame, true, nil); err != nil {
			return nil, err
		}
	}
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
	hdr := &Header{}
	head, body, _, err := readResponse(br, isHEAD, &raw, hdr, nil)
	if err != nil {
		return nil, err
	}
	resp := newResponse(raw.Bytes(), head, hdr, body)
	resp.RawHead = bytes.Clone(resp.RawHead)
	return resp, nil
}

// newResponse builds a Response from a head read into raw. Its RawHead
// aliases raw.
func newResponse(raw []byte, head responseHead, hdr *Header, body []byte) *Response {
	status := string(raw[:head.statusLen])
	return &Response{
		Proto:      status[:head.protoEnd],
		StatusCode: head.code,
		Reason:     status[head.reasonAt:],
		Header:     hdr,
		Body:       body,
		RawHead:    raw,
	}
}

// responseHead is what readResponseHead learns from a response head: where
// the status line's fields lie in the head bytes, the status code, and
// the body framing.
type responseHead struct {
	statusLen int // the status line, without its line ending, is head[:statusLen]
	protoEnd  int // the protocol is head[:protoEnd]
	reasonAt  int // the reason phrase is head[reasonAt:statusLen]
	code      int
	framing
}

// hasBody reports whether a body follows the head.
func (h responseHead) hasBody(isHEAD bool) bool {
	return !isHEAD && h.code != 204 && h.code != 304 && h.code >= 200
}

// readResponse reads one response: its head through readResponseHead
// (adding each field to hdr when hdr is non-nil) and then, unless isHEAD
// or the status rules one out, the body its framing declares. raw
// accumulates the head bytes. When arena is non-nil the body is read into
// it (the body borrows it; the grown arena is returned for reuse); when
// nil the body is freshly allocated and owned.
func readResponse(br *bufio.Reader, isHEAD bool, raw *bytes.Buffer, hdr *Header, arena []byte) (responseHead, []byte, []byte, error) {
	head, err := readResponseHead(br, raw, hdr)
	if err != nil || !head.hasBody(isHEAD) {
		return head, nil, arena, err
	}
	var dst []byte
	if arena != nil {
		dst = arena[:0]
	}
	body, err := readBody(br, head.framing, false, dst)
	if arena != nil && cap(body) > cap(arena) {
		arena = body[:0]
	}
	return head, body, arena, err
}

// readResponseHead is the one response-head parser. It reads the status
// line and the header fields from br into raw, bounding every line,
// validating the status line and each field and enforcing the header
// limits, and records what the body framing needs. Each field is added to
// hdr when hdr is non-nil; with a nil hdr the walk allocates nothing.
func readResponseHead(br *bufio.Reader, raw *bytes.Buffer, hdr *Header) (responseHead, error) {
	var head responseHead
	line, err := readLineRaw(br, raw)
	if err != nil {
		return head, err
	}
	proto, rest, ok := bytes.Cut(line, []byte(" "))
	if !ok || !bytes.HasPrefix(proto, []byte("HTTP/")) {
		return head, fmt.Errorf("%w: %q", ErrMalformedStartLine, line)
	}
	codeStr, reason, _ := bytes.Cut(rest, []byte(" "))
	code := parseDecimal(codeStr)
	if code < 100 || code > 999 {
		return head, fmt.Errorf("%w: bad status %q", ErrMalformedStartLine, rest)
	}
	head.statusLen = len(line)
	head.protoEnd = len(proto)
	head.reasonAt = len(line) - len(reason)
	head.code = int(code)
	head.framing, err = readFields(br, raw, hdr)
	return head, err
}

// readLineRaw reads one CRLF- (or LF-) terminated line, bounded, and
// returns it without its line ending. With a non-nil raw the line is
// appended to raw and the result aliases raw; otherwise it may alias
// br's buffer and is valid only until the next read on br.
func readLineRaw(br *bufio.Reader, raw *bytes.Buffer) ([]byte, error) {
	var b []byte
	start := 0
	if raw != nil {
		start = raw.Len()
	}
	for {
		chunk, err := br.ReadSlice('\n')
		switch {
		case raw != nil:
			raw.Write(chunk)
			b = raw.Bytes()[start:]
		case err == nil && b == nil:
			// The whole line sat in the buffer: no copy.
			b = chunk
		default:
			b = append(b, chunk...)
		}
		if err == nil {
			break
		}
		if err == bufio.ErrBufferFull {
			if len(b) > maxStartLine {
				return nil, ErrHeaderTooLarge
			}
			continue
		}
		if err == io.EOF && len(b) > 0 {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if len(b) > maxStartLine {
		return nil, ErrHeaderTooLarge
	}
	return bytes.TrimRight(b, "\r\n"), nil
}

// readLine reads one CRLF- (or LF-) terminated line, bounded.
func readLine(br *bufio.Reader) (string, error) {
	b, err := readLineRaw(br, nil)
	return string(b), err
}

// framing is how a message delimits its body, taken from its first
// Transfer-Encoding and first Content-Length fields.
type framing struct {
	chunked bool  // chunked transfer coding, which wins over a length
	sized   bool  // a non-empty Content-Length was sent
	length  int64 // its value, or -1 when it is not a non-negative integer
}

// readFields reads header fields through the blank line that ends a head,
// appending them to raw when raw is non-nil. It bounds their count and
// total size, validates each field, adds it to hdr when hdr is non-nil,
// and returns the framing the fields declare.
func readFields(br *bufio.Reader, raw *bytes.Buffer, hdr *Header) (framing, error) {
	var frame framing
	var sawTE, sawCL bool
	total, count := 0, 0
	for {
		line, err := readLineRaw(br, raw)
		if err != nil {
			return frame, err
		}
		if len(line) == 0 {
			return frame, nil
		}
		total += len(line)
		if total > maxHeaderBytes || count >= maxHeaderCount {
			return frame, ErrHeaderTooLarge
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok || len(name) == 0 || bytes.ContainsAny(name, " \t") {
			return frame, fmt.Errorf("%w: %q", ErrMalformedHeader, line)
		}
		count++
		value = bytes.TrimSpace(value)
		switch {
		case !sawTE && bytes.EqualFold(name, []byte("Transfer-Encoding")):
			sawTE = true
			frame.chunked = bytes.EqualFold(value, []byte("chunked"))
		case !sawCL && bytes.EqualFold(name, []byte("Content-Length")):
			sawCL = true
			if len(value) > 0 {
				frame.sized, frame.length = true, parseDecimal(value)
			}
		}
		if hdr != nil {
			// One copy per field; name and value are its substrings.
			field := string(line)
			hdr.Add(field[:len(name)], strings.TrimSpace(field[len(name)+1:]))
		}
	}
}

// readBody consumes a message body per its chunked, Content-Length or
// read-to-EOF framing, appending it into dst (grown as needed) so pooled
// arenas can absorb the read; a nil dst allocates fresh storage.
// isRequest selects the request rule: a request without explicit framing
// has no body (RFC 7230 §3.3.3), whereas an unframed response is
// delimited by connection close.
func readBody(br *bufio.Reader, frame framing, isRequest bool, dst []byte) ([]byte, error) {
	if frame.chunked {
		return readChunkedInto(br, dst)
	}
	if frame.sized {
		n := frame.length
		if n < 0 {
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

// parseDecimal parses a base-10 integer the way strconv.ParseInt(s, 10,
// 64) accepts one (an optional sign, then at least one digit, within
// int64 range) without converting s to a string. It returns -1 for
// anything else and for negative values, which no caller accepts.
func parseDecimal(s []byte) int64 {
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if len(s) == 0 {
		return -1
	}
	var n uint64
	for _, c := range s {
		if c < '0' || c > '9' || n > math.MaxInt64/10+1 {
			return -1
		}
		n = n*10 + uint64(c-'0')
	}
	switch {
	case neg && n == 0:
		return 0
	case neg || n > math.MaxInt64:
		return -1
	}
	return int64(n)
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
