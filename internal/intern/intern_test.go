package intern

import (
	"fmt"
	"sync"
	"testing"
)

func TestStringCanonical(t *testing.T) {
	tab := NewTable()
	a := tab.String("hello")
	b := tab.String(string([]byte{'h', 'e', 'l', 'l', 'o'})) // distinct backing array
	if a != "hello" || b != "hello" {
		t.Fatalf("interned values differ from input: %q %q", a, b)
	}
	if len(tab.m) != 1 {
		t.Fatalf("entries = %d, want 1", len(tab.m))
	}
}

func TestBytesSharesBacking(t *testing.T) {
	tab := NewTable()
	first := tab.Bytes([]byte("banner text"))
	second := tab.Bytes([]byte("banner text"))
	// Same canonical string: comparing headers is enough for equality,
	// but the point of interning is pointer identity of the backing
	// data, which Go exposes via string equality being O(1) when the
	// data pointers match. We can at least assert Len stayed 1.
	if first != second {
		t.Fatalf("interned bytes differ: %q vs %q", first, second)
	}
	if len(tab.m) != 1 {
		t.Fatalf("entries = %d, want 1", len(tab.m))
	}
}

func TestEmpty(t *testing.T) {
	tab := NewTable()
	if tab.String("") != "" || tab.Bytes(nil) != "" {
		t.Fatal("empty inputs must intern to the empty string")
	}
	if len(tab.m) != 0 {
		t.Fatalf("entries = %d, want 0 after empty inputs", len(tab.m))
	}
}

func TestConcurrent(t *testing.T) {
	tab := NewTable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := fmt.Sprintf("value-%d", i%17)
				if got := tab.String(s); got != s {
					t.Errorf("String(%q) = %q", s, got)
					return
				}
				if got := tab.Bytes([]byte(s)); got != s {
					t.Errorf("Bytes(%q) = %q", s, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(tab.m) != 17 {
		t.Fatalf("entries = %d, want 17", len(tab.m))
	}
}

func BenchmarkBytesHit(b *testing.B) {
	tab := NewTable()
	payload := []byte("HTTP/1.1 200 OK\r\nServer: nginx\r\n")
	tab.Bytes(payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Bytes(payload)
	}
}
