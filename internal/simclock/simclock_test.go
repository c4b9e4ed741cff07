package simclock

import (
	"sync"
	"testing"
	"time"
)

func TestManualStartsAtEpoch(t *testing.T) {
	c := NewManual(time.Time{})
	if !c.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want Epoch %v", c.Now(), Epoch)
	}
}

func TestManualStartsAtGivenTime(t *testing.T) {
	start := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	c := NewManual(start)
	if !c.Now().Equal(start) {
		t.Fatalf("Now() = %v, want %v", c.Now(), start)
	}
}

func TestManualAdvance(t *testing.T) {
	c := NewManual(time.Time{})
	c.Advance(90 * time.Minute)
	want := Epoch.Add(90 * time.Minute)
	if !c.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", c.Now(), want)
	}
}

func TestManualAdvanceTo(t *testing.T) {
	c := NewManual(time.Time{})
	target := Epoch.Add(Days(4))
	c.AdvanceTo(target)
	if !c.Now().Equal(target) {
		t.Fatalf("Now() = %v, want %v", c.Now(), target)
	}
}

func TestManualAdvanceToPastPanics(t *testing.T) {
	c := NewManual(time.Time{})
	c.Advance(time.Hour)
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo into the past did not panic")
		}
	}()
	c.AdvanceTo(Epoch)
}

func TestManualNegativeAdvancePanics(t *testing.T) {
	c := NewManual(time.Time{})
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	c.Advance(-time.Second)
}

func TestAfterFiresOnAdvance(t *testing.T) {
	c := NewManual(time.Time{})
	ch := c.After(time.Hour)
	select {
	case <-ch:
		t.Fatal("After fired before Advance")
	default:
	}
	c.Advance(time.Hour)
	select {
	case got := <-ch:
		if !got.Equal(Epoch.Add(time.Hour)) {
			t.Fatalf("After delivered %v, want %v", got, Epoch.Add(time.Hour))
		}
	default:
		t.Fatal("After did not fire after Advance")
	}
}

func TestAfterNonPositiveFiresImmediately(t *testing.T) {
	c := NewManual(time.Time{})
	select {
	case <-c.After(0):
	default:
		t.Fatal("After(0) did not fire immediately")
	}
	select {
	case <-c.After(-time.Minute):
	default:
		t.Fatal("After(negative) did not fire immediately")
	}
}

func TestAfterPartialAdvance(t *testing.T) {
	c := NewManual(time.Time{})
	ch := c.After(2 * time.Hour)
	c.Advance(time.Hour)
	select {
	case <-ch:
		t.Fatal("After fired early")
	default:
	}
	c.Advance(time.Hour)
	select {
	case <-ch:
	default:
		t.Fatal("After did not fire at deadline")
	}
}

func TestMultipleWaitersFireInOrder(t *testing.T) {
	c := NewManual(time.Time{})
	ch1 := c.After(time.Hour)
	ch2 := c.After(2 * time.Hour)
	ch3 := c.After(3 * time.Hour)
	c.Advance(Days(1))
	for i, ch := range []<-chan time.Time{ch1, ch2, ch3} {
		select {
		case <-ch:
		default:
			t.Fatalf("waiter %d did not fire", i+1)
		}
	}
}

func TestDays(t *testing.T) {
	if Days(4) != 96*time.Hour {
		t.Fatalf("Days(4) = %v, want 96h", Days(4))
	}
}

func TestSystemClock(t *testing.T) {
	var c System
	before := time.Now()
	got := c.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("System.Now() = %v outside [%v, %v]", got, before, after)
	}
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(time.Second):
		t.Fatal("System.After(1ms) did not fire within 1s")
	}
}

func TestManualConcurrentAccess(t *testing.T) {
	c := NewManual(time.Time{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			c.Advance(time.Minute)
		}
	}()
	for i := 0; i < 100; i++ {
		_ = c.Now()
		_ = c.After(time.Hour)
	}
	<-done
}

// TestManualConcurrentAdvance races AdvanceTo, Advance and Now. Each
// AdvanceTo(target) checks and moves the clock in one step, so however
// the calls interleave the clock ends exactly at the target; Now never
// runs backwards or past it, and a waiter due at the target fires. Run
// it under -race -count=10.
func TestManualConcurrentAdvance(t *testing.T) {
	target := Epoch.Add(time.Hour)
	for trial := 0; trial < 500; trial++ {
		c := NewManual(time.Time{})
		fired := c.After(time.Hour)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 10; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if g < 8 {
					c.AdvanceTo(target)
				} else {
					c.Advance(0)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			last := Epoch
			for i := 0; i < 50; i++ {
				now := c.Now()
				if now.Before(last) || now.After(target) {
					t.Errorf("Now() = %v after %v, want it monotone and no later than %v", now, last, target)
					return
				}
				last = now
			}
		}()
		close(start)
		wg.Wait()
		if got := c.Now(); !got.Equal(target) {
			t.Fatalf("trial %d: clock at %v after concurrent AdvanceTo(%v)", trial, got, target)
		}
		select {
		case <-fired:
		default:
			t.Fatalf("trial %d: the waiter due at the target did not fire", trial)
		}
	}
}
