package netsim

import (
	"errors"
	"io"
	"os"
	"runtime"
	"testing"
	"time"
)

// blockRead starts a Read on c and returns once the Read is parked on
// the cond with its deadline timer armed. The Read's error arrives on
// the returned channel.
func blockRead(t *testing.T, c *conn) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		done <- err
	}()
	for start := time.Now(); ; {
		c.rd.mu.Lock()
		armed := c.rd.rdl.timer != nil
		c.rd.mu.Unlock()
		if armed {
			return done
		}
		if time.Since(start) > 5*time.Second {
			t.Fatal("blocked Read never armed its deadline timer")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClosedPipeNotHeldByDeadline: a Read parked under a one-hour
// deadline arms a timer, and closing the connection stops it, so the
// closed pair is garbage within a few GCs instead of staying reachable
// from the timer for the hour.
func TestClosedPipeNotHeldByDeadline(t *testing.T) {
	finalized := make(chan struct{})
	func() {
		p := newConnPair(simAddr{}, simAddr{})
		runtime.SetFinalizer(p, func(*connPair) { close(finalized) })
		p.a.SetReadDeadline(time.Now().Add(time.Hour)) //nolint:errcheck // cannot fail
		done := blockRead(t, &p.a)
		p.a.Close()
		p.b.Close()
		if err := <-done; !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("Read on a closed conn = %v, want io.ErrClosedPipe", err)
		}
	}()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-finalized:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("closed pair still reachable after 10 GCs: its deadline timer holds it")
}

// TestBlockedReadDeadline pins both ways a deadline ends a blocked Read
// with os.ErrDeadlineExceeded: its timer firing at the deadline (not
// before), and SetReadDeadline with a past time waking it at once.
func TestBlockedReadDeadline(t *testing.T) {
	t.Run("fires-at-deadline", func(t *testing.T) {
		p := newConnPair(simAddr{}, simAddr{})
		defer p.a.Close()
		const wait = 50 * time.Millisecond
		start := time.Now()
		p.a.SetReadDeadline(start.Add(wait)) //nolint:errcheck // cannot fail
		_, err := p.a.Read(make([]byte, 1))
		elapsed := time.Since(start)
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("Read = %v, want os.ErrDeadlineExceeded", err)
		}
		if elapsed < wait || elapsed > time.Second {
			t.Fatalf("Read returned after %v, want at its %v deadline", elapsed, wait)
		}
	})
	t.Run("past-deadline-wakes", func(t *testing.T) {
		p := newConnPair(simAddr{}, simAddr{})
		defer p.a.Close()
		p.a.SetReadDeadline(time.Now().Add(time.Hour)) //nolint:errcheck // cannot fail
		done := blockRead(t, &p.a)
		p.a.SetReadDeadline(time.Now().Add(-time.Second)) //nolint:errcheck // cannot fail
		select {
		case err := <-done:
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("Read = %v, want os.ErrDeadlineExceeded", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a past deadline did not wake the blocked Read")
		}
	})
}
