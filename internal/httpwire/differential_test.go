package httpwire

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"filtermap/internal/corpustest"
)

// respEqual compares every parse-visible field of two responses. The
// buffered response is borrowed, so comparison happens before the next
// read on its buffer.
func respEqual(a, b *Response) (string, bool) {
	switch {
	case a.Proto != b.Proto:
		return "Proto", false
	case a.StatusCode != b.StatusCode:
		return "StatusCode", false
	case a.Reason != b.Reason:
		return "Reason", false
	case !bytes.Equal(a.RawHead, b.RawHead):
		return "RawHead", false
	case (a.Body == nil) != (b.Body == nil) || !bytes.Equal(a.Body, b.Body):
		return "Body", false
	case len(a.Header.fields) != len(b.Header.fields):
		return "Header.Len", false
	}
	af, bf := a.Header.Fields(), b.Header.Fields()
	for i := range af {
		if af[i] != bf[i] {
			return "Header." + af[i].Name, false
		}
	}
	return "", true
}

// wireCases returns the committed FuzzReadResponse corpus plus
// constructed messages covering each body-framing path of the reader.
func wireCases(t *testing.T) []corpustest.Entry {
	t.Helper()
	entries, err := corpustest.Load("testdata/fuzz/FuzzReadResponse")
	if err != nil {
		t.Fatal(err)
	}
	extra := []struct {
		name string
		wire string
		head bool
	}{
		{"cl-body", "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello", false},
		{"cl-zero", "HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n", false},
		{"eof-body", "HTTP/1.1 200 OK\r\nServer: x\r\n\r\nread until close", false},
		{"eof-empty", "HTTP/1.1 200 OK\r\n\r\n", false},
		{"chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nwiki\r\n5\r\npedia\r\n0\r\n\r\n", false},
		{"chunked-empty", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", false},
		{"head-with-cl", "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n", true},
		{"redirect", "HTTP/1.1 302 Found\r\nLocation: http://h:8080/webadmin/deny/\r\nServer: s\r\n\r\n", false},
		{"dup-headers", "HTTP/1.1 200 OK\r\nX-A: 1\r\nx-a: 2\r\nX-A: 3\r\n\r\nbody", false},
		{"truncated-head", "HTTP/1.1 200 OK\r\nServer: x", false},
		{"bad-status", "HTTP/1.1 banana OK\r\n\r\n", false},
		{"garbage", "\x00\x01\x02 not http at all", false},
		{"truncated-chunk", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nff\r\nshort", false},
	}
	for _, e := range extra {
		entries = append(entries, corpustest.Entry{Name: e.name, Values: []any{[]byte(e.wire), e.head}})
	}
	return entries
}

// checkReadRaw pins the head-only read to the owning reader on wire, a
// reply to a non-HEAD request: ReadRaw must fail exactly when
// ReadResponse fails, and otherwise return its RawHead and Body byte for
// byte.
func checkReadRaw(t *testing.T, buf *ReadBuffer, name string, wire []byte) {
	t.Helper()
	want, wantErr := ReadResponse(bufio.NewReader(bytes.NewReader(wire)), false)
	head, body, gotErr := buf.ReadRaw(bytes.NewReader(wire))
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: ReadResponse err=%v, ReadRaw err=%v", name, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if !bytes.Equal(want.RawHead, head) || !bytes.Equal(want.Body, body) {
		t.Errorf("%s: ReadRaw differs from ReadResponse:\n  head %q vs %q\n  body %q vs %q", name, head, want.RawHead, body, want.Body)
	}
}

// TestDifferentialReadResponse replays the wire corpus through the owning
// reader and the pooled buffered reader: both must produce identical parse
// outcomes (same error presence, field-identical responses), and buffer
// reuse across iterations must not leak one message's bytes into the next.
// Every non-HEAD entry also goes through the head-only ReadRaw.
func TestDifferentialReadResponse(t *testing.T) {
	buf := GetReadBuffer()
	defer buf.Release()
	for _, e := range wireCases(t) {
		wire, isHEAD := e.Bytes(0), e.Bool(1)
		if !isHEAD {
			checkReadRaw(t, buf, e.Name, wire)
		}
		want, wantErr := ReadResponse(bufio.NewReader(bytes.NewReader(wire)), isHEAD)
		got, gotErr := ReadResponseBuffered(buf, strings.NewReader(string(wire)), isHEAD)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s (HEAD=%v): owned err=%v, buffered err=%v", e.Name, isHEAD, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if field, ok := respEqual(want, got); !ok {
			t.Errorf("%s (HEAD=%v): responses differ at %s:\n  owned:    %+v\n  buffered: %+v", e.Name, isHEAD, field, want, got)
		}
	}
}

// TestReadBufferReuse pins the ownership rule: reading a second response
// on the same buffer invalidates the first, so anything retained from a
// borrowed response must be copied out first.
func TestReadBufferReuse(t *testing.T) {
	buf := GetReadBuffer()
	defer buf.Release()
	first, err := ReadResponseBuffered(buf, strings.NewReader("HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nAAAA"), false)
	if err != nil {
		t.Fatal(err)
	}
	keptBody := string(first.Body)
	keptHead := string(first.RawHead)
	if _, err := ReadResponseBuffered(buf, strings.NewReader("HTTP/1.1 404 Not Found\r\nContent-Length: 4\r\n\r\nBBBB"), false); err != nil {
		t.Fatal(err)
	}
	if keptBody != "AAAA" || !strings.Contains(keptHead, "200 OK") {
		t.Fatalf("copies made before the second read were corrupted: body=%q head=%q", keptBody, keptHead)
	}
	// The borrowed slices themselves now belong to the second message —
	// that is the documented contract, not a bug; nothing to assert beyond
	// the copies above surviving.
}

// TestReadResponseBufferedSteadyStateAllocs checks that repeated reads on
// one warm ReadBuffer stay allocation-light: the arena and head buffer are
// reused, so only per-response parse structures (Response, header fields,
// strings) allocate. The bound is far below the owning reader's cost and
// fails if pooling regresses to per-read buffer churn.
func TestReadResponseBufferedSteadyStateAllocs(t *testing.T) {
	wire := "HTTP/1.1 200 OK\r\nServer: demo\r\nContent-Length: 1024\r\n\r\n" + strings.Repeat("x", 1024)
	buf := GetReadBuffer()
	defer buf.Release()
	r := strings.NewReader(wire)
	if _, err := ReadResponseBuffered(buf, r, false); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		r.Reset(wire)
		if _, err := ReadResponseBuffered(buf, r, false); err != nil {
			t.Fatal(err)
		}
	})
	if n > 7 {
		t.Errorf("buffered read allocates %v/op steady-state, want <= 7 (arena reuse broken?)", n)
	}
}

// TestZeroAllocReadRaw pins the head-only read at zero allocations once
// its buffer is warm. CI runs this.
func TestZeroAllocReadRaw(t *testing.T) {
	wire := "HTTP/1.0 200 OK\r\nContent-Type: text/html\r\nServer: nginx/1.2.1\r\nContent-Length: 1024\r\nConnection: close\r\n\r\n" + strings.Repeat("x", 1024)
	buf := GetReadBuffer()
	defer buf.Release()
	r := strings.NewReader(wire)
	if _, _, err := buf.ReadRaw(r); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		r.Reset(wire)
		if _, _, err := buf.ReadRaw(r); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm ReadRaw allocates %v/op, want 0", n)
	}
}
