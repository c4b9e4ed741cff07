package netsim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// responseOutcome is what a client observes reading one connection to
// its end: the bytes and the error that ended the read (nil for EOF).
type responseOutcome struct {
	got []byte
	err string
}

// dialResponse builds a fresh network whose 192.0.2.1:80 is served by
// handler under plan (nil for none), dials it from 192.0.2.2 and returns
// the client's end, with a deadline that turns a read waiting for an EOF
// that never comes into a failure. Every call dials the same key, so a
// fault plan rolls the same fault for both forms of a Response.
func dialResponse(t *testing.T, handler Handler, plan *FaultPlan) net.Conn {
	t.Helper()
	n := newTestNet(t)
	srv, err := n.AddHost(mustAddr(t, "192.0.2.1"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := n.AddHost(mustAddr(t, "192.0.2.2"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Serve(80, Public, handler); err != nil {
		t.Fatal(err)
	}
	n.SetFaultPlan(plan)
	c, err := cli.Dial(context.Background(), srv.Addr(), 80)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // cannot fail
	return c
}

func readOutcome(c net.Conn) responseOutcome {
	got, err := io.ReadAll(c)
	out := responseOutcome{got: got}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// TestResponseInlineMatchesGoroutine: a Response answered inside the
// dial reads exactly as the same Response served by a goroutine through
// its ServeConn: the same bytes then EOF, a request written after the
// answer still accepted, an expired read deadline reported before any
// byte, and the same bytes or error under every byte-level fault. A
// garbled read leaves the answer itself untouched, and eight goroutines
// may read one inline answer at once (run it under -race).
func TestResponseInlineMatchesGoroutine(t *testing.T) {
	const answer = "HTTP/1.0 200 OK\r\nServer: nginx/1.2.1\r\nContent-Length: 12\r\nConnection: close\r\n\r\nHello world\n"
	resp := Response(answer)
	// Each form returns its handler and a channel closed once the
	// answer has been served.
	forms := []struct {
		name string
		form func() (Handler, <-chan struct{})
	}{
		{"inline", func() (Handler, <-chan struct{}) {
			done := make(chan struct{})
			close(done)
			return resp, done
		}},
		{"goroutine", func() (Handler, <-chan struct{}) {
			done := make(chan struct{})
			return HandlerFunc(func(c net.Conn) {
				resp.ServeConn(c)
				close(done)
			}), done
		}},
	}

	t.Run("bytes then EOF", func(t *testing.T) {
		for _, f := range forms {
			h, _ := f.form()
			c := dialResponse(t, h, nil)
			got, err := io.ReadAll(c)
			if err != nil || string(got) != answer {
				t.Fatalf("%s: read %q, %v; want the answer then EOF", f.name, got, err)
			}
			if n, err := c.Read(make([]byte, 1)); n != 0 || err != io.EOF {
				t.Fatalf("%s: read after the answer = %d, %v; want 0, EOF", f.name, n, err)
			}
		}
	})

	t.Run("late request", func(t *testing.T) {
		for _, f := range forms {
			h, served := f.form()
			c := dialResponse(t, h, nil)
			<-served
			if _, err := io.WriteString(c, "GET / HTTP/1.0\r\nHost: 192.0.2.1\r\n\r\n"); err != nil {
				t.Fatalf("%s: request written after the answer: %v", f.name, err)
			}
			if got, err := io.ReadAll(c); err != nil || string(got) != answer {
				t.Fatalf("%s: read %q, %v; want the answer then EOF", f.name, got, err)
			}
		}
	})

	t.Run("expired deadline", func(t *testing.T) {
		for _, f := range forms {
			h, _ := f.form()
			c := dialResponse(t, h, nil)
			c.SetReadDeadline(time.Now().Add(-time.Second)) //nolint:errcheck // cannot fail
			if n, err := c.Read(make([]byte, len(answer))); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("%s: read past the deadline = %d, %v; want 0, os.ErrDeadlineExceeded", f.name, n, err)
			}
		}
	})

	for _, kind := range []FaultKind{FaultReset, FaultTruncate, FaultGarble} {
		t.Run(string(kind), func(t *testing.T) {
			plan := &FaultPlan{Seed: 11, Rules: []FaultRule{
				{Kind: kind, Probability: 1, Sticky: true, AfterBytes: 20},
			}}
			var outcomes [2]responseOutcome
			for i, f := range forms {
				h, _ := f.form()
				outcomes[i] = readOutcome(dialResponse(t, h, plan))
			}
			in, gr := outcomes[0], outcomes[1]
			if !bytes.Equal(in.got, gr.got) || in.err != gr.err {
				t.Fatalf("inline read %q, %q; goroutine read %q, %q", in.got, in.err, gr.got, gr.err)
			}
			if kind == FaultGarble && string(in.got) == answer {
				t.Fatal("garble fault left the read untouched")
			}
			if string(resp) != answer {
				t.Fatalf("the answer itself changed: %q", resp)
			}
		})
	}

	t.Run("after close", func(t *testing.T) {
		for _, f := range forms {
			h, served := f.form()
			c := dialResponse(t, h, nil)
			<-served
			c.Close()
			if n, err := c.Read(make([]byte, 8)); n != 0 || err != io.ErrClosedPipe {
				t.Fatalf("%s: read after Close = %d, %v; want 0, io.ErrClosedPipe", f.name, n, err)
			}
			if n, err := io.WriteString(c, "GET / HTTP/1.0\r\n\r\n"); n != 0 || err != io.ErrClosedPipe {
				t.Fatalf("%s: write after Close = %d, %v; want 0, io.ErrClosedPipe", f.name, n, err)
			}
		}
	})

	t.Run("write after CloseWrite", func(t *testing.T) {
		for _, f := range forms {
			h, served := f.form()
			c := dialResponse(t, h, nil)
			<-served
			if err := c.(interface{ CloseWrite() error }).CloseWrite(); err != nil {
				t.Fatalf("%s: CloseWrite: %v", f.name, err)
			}
			if n, err := io.WriteString(c, "GET / HTTP/1.0\r\n\r\n"); n != 0 || err != io.ErrClosedPipe {
				t.Fatalf("%s: write after CloseWrite = %d, %v; want 0, io.ErrClosedPipe", f.name, n, err)
			}
			if got, err := io.ReadAll(c); err != nil || string(got) != answer {
				t.Fatalf("%s: read after CloseWrite %q, %v; want the answer then EOF", f.name, got, err)
			}
		}
	})

	t.Run("addresses", func(t *testing.T) {
		var ends [2]string
		for i, f := range forms {
			h, _ := f.form()
			c := dialResponse(t, h, nil)
			local, remote := c.LocalAddr(), c.RemoteAddr()
			if AddrOf(local) != mustAddr(t, "192.0.2.2") || AddrOf(remote) != mustAddr(t, "192.0.2.1") {
				t.Fatalf("%s: AddrOf of the ends = %v, %v; want 192.0.2.2, 192.0.2.1", f.name, AddrOf(local), AddrOf(remote))
			}
			ends[i] = local.String() + " -> " + remote.String()
		}
		if ends[0] != ends[1] {
			t.Fatalf("inline ends %s, goroutine ends %s", ends[0], ends[1])
		}
	})

	// The one documented difference: a Response never reads its request,
	// so the inline form drops a write of any size at once, where the
	// pipe holds 1 MB and then blocks until the write deadline.
	t.Run("large write", func(t *testing.T) {
		big := make([]byte, 2<<20)
		for _, f := range forms {
			h, served := f.form()
			c := dialResponse(t, h, nil)
			<-served
			c.SetWriteDeadline(time.Now().Add(50 * time.Millisecond)) //nolint:errcheck // cannot fail
			n, err := c.Write(big)
			switch f.name {
			case "inline":
				if n != len(big) || err != nil {
					t.Fatalf("inline: 2 MB write = %d, %v; want %d, nil at once", n, err, len(big))
				}
			default:
				if n != pipeBufferLimit || !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("%s: 2 MB write = %d, %v; want %d, os.ErrDeadlineExceeded", f.name, n, err, pipeBufferLimit)
				}
			}
			if got, err := io.ReadAll(c); err != nil || string(got) != answer {
				t.Fatalf("%s: read after the write %q, %v; want the answer then EOF", f.name, got, err)
			}
		}
	})

	t.Run("concurrent inline", func(t *testing.T) {
		// Port 80 reads plain and 8080 through a garbling fault; eight
		// goroutines alternate between them.
		n := newTestNet(t)
		srv, err := n.AddHost(mustAddr(t, "192.0.2.1"), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		cli, err := n.AddHost(mustAddr(t, "192.0.2.2"), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, port := range []uint16{80, 8080} {
			if _, err := srv.Serve(port, Public, resp); err != nil {
				t.Fatal(err)
			}
		}
		n.SetFaultPlan(&FaultPlan{Seed: 3, Rules: []FaultRule{
			{Kind: FaultGarble, Port: 8080, Probability: 1, Sticky: true},
		}})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					port := uint16(80)
					if (g+i)%2 == 1 {
						port = 8080
					}
					c, err := cli.Dial(context.Background(), srv.Addr(), port)
					if err != nil {
						t.Errorf("Dial %d: %v", port, err)
						return
					}
					c.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // cannot fail
					got, err := io.ReadAll(c)
					c.Close()
					if err != nil || len(got) != len(answer) || (port == 80) != (string(got) == answer) {
						t.Errorf("port %d read %q, %v", port, got, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if string(resp) != answer {
			t.Fatalf("the answer itself changed: %q", resp)
		}
	})
}

// TestAllocsDialResponse pins a dial answered by a Response, read to EOF
// and closed, at one allocation: the connection, which has no pipe
// behind it. The answer is known before Dial returns, so no goroutine
// starts and no read waits or arms a timer. CI runs this (make
// alloc-gate).
func TestAllocsDialResponse(t *testing.T) {
	n := newTestNet(t)
	srv, err := n.AddHost(mustAddr(t, "192.0.2.1"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := n.AddHost(mustAddr(t, "192.0.2.2"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	const answer = "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok"
	if _, err := srv.Serve(80, Public, Response(answer)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	buf := make([]byte, 16)
	var read int
	var failed error
	allocs := testing.AllocsPerRun(200, func() {
		c, err := cli.Dial(ctx, srv.Addr(), 80)
		if err != nil {
			failed = err
			return
		}
		read = 0
		for {
			n, err := c.Read(buf)
			read += n
			if err != nil {
				if err != io.EOF {
					failed = err
				}
				break
			}
		}
		c.Close()
	})
	if failed != nil || read != len(answer) {
		t.Fatalf("read %d bytes, %v; want %d then EOF", read, failed, len(answer))
	}
	if allocs > 1 {
		t.Errorf("dial, read and close of a Response allocate %v/op, want <= 1", allocs)
	}
}
