package httpwire

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
)

func BenchmarkReadRequest(b *testing.B) {
	wire := "GET /webadmin/deny/index.php?cat=23&url=http%3A%2F%2Fx.info%2F HTTP/1.1\r\n" +
		"Host: ns1.yemen.net.ye:8080\r\n" +
		"User-Agent: oni-measurement-client/2.1\r\n" +
		"Accept: */*\r\n" +
		"Connection: close\r\n\r\n"
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := bufio.NewReader(strings.NewReader(wire))
		if _, err := ReadRequest(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadResponse(b *testing.B) {
	body := strings.Repeat("x", 2048)
	wire := "HTTP/1.1 403 Forbidden\r\n" +
		"Content-Type: text/html; charset=utf-8\r\n" +
		"Server: McAfee Web Gateway 7.3\r\n" +
		"Via-Proxy: mwg1.example\r\n" +
		"Content-Length: 2048\r\n\r\n" + body
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := bufio.NewReader(strings.NewReader(wire))
		if _, err := ReadResponse(r, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteResponse(b *testing.B) {
	resp := NewResponse(200,
		NewHeader("Content-Type", "text/html", "Server", "test", "Cache-Control", "no-cache"),
		bytes.Repeat([]byte("y"), 2048))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := resp.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChunkedRoundTrip(b *testing.B) {
	body := bytes.Repeat([]byte("chunk-data-"), 1024)
	resp := NewResponse(200, NewHeader("Transfer-Encoding", "chunked"), body)
	var buf bytes.Buffer
	resp.WriteTo(&buf) //nolint:errcheck // setup
	wire := buf.Bytes()
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := bufio.NewReader(bytes.NewReader(wire))
		if _, err := ReadResponse(r, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeaderGet(b *testing.B) {
	h := NewHeader(
		"Content-Type", "text/html",
		"Server", "x",
		"Via", "1.1 a",
		"Via-Proxy", "mwg1",
		"Cache-Control", "no-cache",
		"Location", "http://example.com/",
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if h.Get("via-proxy") == "" {
			b.Fatal("lost header")
		}
	}
}

func BenchmarkMuxDispatch(b *testing.B) {
	m := &Mux{}
	m.RouteFunc("/webadmin/deny/index.php", func(*Request) *Response { return NewResponse(200, nil, nil) })
	m.RouteFunc("/webadmin/", func(*Request) *Response { return NewResponse(200, nil, nil) })
	m.RouteFunc("/", func(*Request) *Response { return NewResponse(200, nil, nil) })
	req, _ := NewRequest("GET", "http://h/webadmin/deny/index.php")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m.Handle(req).StatusCode != 200 {
			b.Fatal("bad dispatch")
		}
	}
}
