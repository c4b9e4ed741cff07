package world

import (
	"context"
	"fmt"
	"testing"

	"filtermap/internal/engine"
)

// The world-scaling benchmarks behind BENCH_world.json (DESIGN.md §16):
// cold-dial materialization cost, live-heap per 10k materialized hosts,
// and the full identify scan lazy vs eager at 1 and 8 workers.
// Regenerate the committed JSON with `make bench-world`.

// BenchmarkScaleColdDial measures whole-ISP materialization through the
// dial path: each iteration dials the gateway of a never-touched
// nation-profile ISP, registering its ~48 hosts, listeners and AS. The
// world is rebuilt (outside the timer) when a run exhausts the 2200
// cold ISPs.
func BenchmarkScaleColdDial(b *testing.B) {
	ctx := context.Background()
	var w *World
	probeIdx := 0
	rebuild := func() {
		if w != nil {
			w.Close()
		}
		var err error
		w, err = Build(Options{Scale: ScaleNation})
		if err != nil {
			b.Fatal(err)
		}
		probeIdx = 0
	}
	rebuild()
	defer func() { w.Close() }()
	probe := w.Net.Hosts()[0]

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if probeIdx >= w.scale.profile.isps {
			b.StopTimer()
			rebuild()
			probe = w.Net.Hosts()[0]
			b.StartTimer()
		}
		if c, err := probe.Dial(ctx, w.scale.hostAddr(probeIdx, 0), 80); err == nil {
			c.Close()
		}
		probeIdx++
	}
}

// BenchmarkScaleMemoryPer10kHosts materializes nation-profile ISPs
// until 10k hosts are live and reports the live-heap growth, the
// number the interned index and compact geo tables exist to keep flat.
func BenchmarkScaleMemoryPer10kHosts(b *testing.B) {
	ctx := context.Background()
	var perTenK float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, err := Build(Options{Scale: ScaleNation})
		if err != nil {
			b.Fatal(err)
		}
		probe := w.Net.Hosts()[0]
		before := measuredHeap()
		b.StartTimer()

		hosts := 0
		for isp := 0; hosts < 10_000; isp++ {
			if c, err := probe.Dial(ctx, w.scale.hostAddr(isp, 0), 80); err == nil {
				c.Close()
			}
			hosts += w.scale.hostCount(isp)
		}

		b.StopTimer()
		perTenK = float64(measuredHeap()-before) / float64(hosts) * 10_000
		w.Close()
		b.StartTimer()
	}
	b.ReportMetric(perTenK, "heapB/10khosts")
}

// BenchmarkScaleFullScan runs the full identify pipeline over the city
// profile (handcrafted world + 1526 synthetic hosts), lazy vs eager at
// 1 and 8 workers. Lazy pays materialization inside the scan; eager
// pays it at build time (outside the timer) — the gap is the cost the
// on-demand path amortizes.
func BenchmarkScaleFullScan(b *testing.B) {
	for _, mode := range []struct {
		name  string
		eager bool
	}{{"lazy", false}, {"eager", true}} {
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", mode.name, workers), func(b *testing.B) {
				ctx := context.Background()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					w, err := Build(Options{Scale: ScaleCity}, engine.WithWorkers(workers))
					if err != nil {
						b.Fatal(err)
					}
					if mode.eager {
						r := w.Net.Realm()
						for _, a := range r.Addrs() {
							if err := r.Materialize(a); err != nil {
								b.Fatal(err)
							}
						}
					}
					b.StartTimer()
					if _, err := w.RunIdentification(ctx); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					w.Close()
					b.StartTimer()
				}
			})
		}
	}
}
