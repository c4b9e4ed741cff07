package world

import (
	"context"
	"runtime"
	"testing"

	"filtermap/internal/scanner"
)

// TestScaleNationLazyMemoryCeiling is the no-materialization guard:
// dialing every nation address on every scan port must register
// exactly the product consoles, and the live heap must not grow with
// the population. Registering the ~106k synthetic hosts as netsim Hosts
// instead costs ~35 MB.
func TestScaleNationLazyMemoryCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("heap ceiling is meaningless under the race detector's shadow memory")
	}

	w := buildScaleWorld(t, Options{Scale: ScaleNation})
	baseHosts := len(w.Net.Hosts())
	consoles := 0
	for i := 0; i < w.scale.profile.isps; i++ {
		if w.scale.hasConsole(i) {
			consoles++
		}
	}
	if consoles != 35 {
		t.Fatalf("nation world has %d console ISPs, want 35 at seed 0", consoles)
	}
	addrs := w.scale.Addrs()

	heapBefore := measuredHeap()
	ctx := context.Background()
	for _, addr := range addrs {
		for _, port := range scanner.DefaultPorts {
			if c, err := w.ScanVantage.Dial(ctx, addr, port); err == nil {
				c.Close()
			}
		}
	}
	heapAfter := measuredHeap()

	if registered := len(w.Net.Hosts()) - baseHosts; registered != consoles {
		t.Fatalf("dialing all %d synthetic addresses registered %d hosts, want the %d consoles",
			len(addrs), registered, consoles)
	}
	// Pinned ceiling: the 35 consoles and allocator noise measure well
	// under 1 MB.
	const ceiling = 4 << 20
	grew := int64(heapAfter) - int64(heapBefore)
	if grew > ceiling {
		t.Fatalf("heap grew %d bytes dialing every nation address, ceiling %d", grew, int64(ceiling))
	}
	t.Logf("dialing %d addresses on %d ports grew the heap %d bytes", len(addrs), len(scanner.DefaultPorts), grew)
}

// measuredHeap returns HeapAlloc after a forced collection, so the two
// samples bracket live data rather than garbage.
func measuredHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
