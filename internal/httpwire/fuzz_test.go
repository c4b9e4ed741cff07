package httpwire

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

// FuzzReadRequest throws arbitrary bytes at the request parser. The
// parser faces real sockets (the simulated servers and the measurement
// clients both speak through it), so it must never panic and must obey
// its own size limits; a successfully parsed request must re-serialize
// into bytes the parser accepts again with the same shape.
func FuzzReadRequest(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.1\r\nHost: example.com\r\n\r\n"))
	f.Add([]byte("POST /submit HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nhello"))
	f.Add([]byte("GET http://proxy.example/path HTTP/1.1\r\nHost: proxy.example\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\nHost: a\r\nX-Long: " + strings.Repeat("b", 9000) + "\r\n\r\n"))
	f.Add([]byte("\r\n\r\n"))
	f.Add([]byte("GET  HTTP/1.1\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ReadRequest(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if req.Method == "" || req.Proto == "" {
			t.Fatalf("parsed request with empty method/proto: %+v", req)
		}
		if len(req.Body) > MaxBodyBytes {
			t.Fatalf("body %d exceeds MaxBodyBytes", len(req.Body))
		}
		var out bytes.Buffer
		if _, err := req.WriteTo(&out); err != nil {
			t.Fatalf("re-serialize parsed request: %v", err)
		}
		again, err := ReadRequest(bufio.NewReader(bytes.NewReader(out.Bytes())))
		if err != nil {
			t.Fatalf("re-parse serialized request: %v\nserialized: %q", err, out.Bytes())
		}
		if again.Method != req.Method || !bytes.Equal(again.Body, req.Body) {
			t.Fatalf("round trip drifted: method %q->%q body %d->%d bytes",
				req.Method, again.Method, len(req.Body), len(again.Body))
		}
	})
}

// FuzzReadResponse does the same for the response parser — the path
// every scanned banner, block page and vendor portal reply flows
// through — and holds the head-only ReadRaw to the same parse on every
// input.
func FuzzReadResponse(f *testing.F) {
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi"), false)
	f.Add([]byte("HTTP/1.1 302 Found\r\nLocation: http://deny.example/?cat=23\r\n\r\n"), false)
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n"), false)
	f.Add([]byte("HTTP/1.1 204 No Content\r\n\r\n"), true)
	f.Add([]byte("HTTP/1.0 503 Service Unavailable\r\nConnection: close\r\n\r\nunavailable"), false)
	f.Add([]byte("HTTP/1.1 200\r\n\r\n"), false)
	f.Add([]byte("junk"), false)
	f.Fuzz(func(t *testing.T, data []byte, isHEAD bool) {
		buf := GetReadBuffer()
		checkReadRaw(t, buf, "input", data)
		buf.Release()
		resp, err := ReadResponse(bufio.NewReader(bytes.NewReader(data)), isHEAD)
		if err != nil {
			return
		}
		if resp.StatusCode < 0 || resp.StatusCode > 999 {
			t.Fatalf("status code out of wire range: %d", resp.StatusCode)
		}
		if len(resp.Body) > MaxBodyBytes {
			t.Fatalf("body %d exceeds MaxBodyBytes", len(resp.Body))
		}
		if len(resp.RawHead) == 0 {
			t.Fatal("parsed response has empty RawHead")
		}
		var out bytes.Buffer
		if _, err := resp.WriteTo(&out); err != nil {
			t.Fatalf("re-serialize parsed response: %v", err)
		}
		again, err := ReadResponse(bufio.NewReader(bytes.NewReader(out.Bytes())), isHEAD)
		if err != nil {
			t.Fatalf("re-parse serialized response: %v\nserialized: %q", err, out.Bytes())
		}
		if again.StatusCode != resp.StatusCode {
			t.Fatalf("round trip drifted: status %d -> %d", resp.StatusCode, again.StatusCode)
		}
	})
}
