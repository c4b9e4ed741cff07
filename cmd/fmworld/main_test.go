package main

import (
	"bytes"
	"io"
	"net"
	"os"
	"strings"
	"testing"

	"filtermap/internal/httpwire"
)

// TestProbeRealSocket serves one httpwire handler on a loopback socket
// and runs the real probe path against it — the command's reason to
// exist is that the stack works over genuine TCP.
func TestProbeRealSocket(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	mux := &httpwire.Mux{}
	mux.RouteFunc("/", func(*httpwire.Request) *httpwire.Response {
		return httpwire.NewResponse(200, nil, []byte("plain page\n"))
	})
	srv := &httpwire.Server{Handler: mux}
	go srv.Serve(l) //nolint:errcheck // ends with listener

	out := captureStdout(t, func() {
		probe("http://" + l.Addr().String() + "/")
	})
	if !strings.Contains(out, "200") {
		t.Fatalf("probe output missing status line:\n%s", out)
	}
	if !strings.Contains(out, "no product signature matched") {
		t.Fatalf("probe of a plain page should match no signature:\n%s", out)
	}
}

// captureStdout redirects os.Stdout around fn and returns what it wrote.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r) //nolint:errcheck // read side of our own pipe
		done <- buf.String()
	}()
	fn()
	w.Close()
	os.Stdout = orig
	return <-done
}
