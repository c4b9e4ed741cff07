package world

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"filtermap/internal/engine"
	"filtermap/internal/scanner"
)

// The world-scaling benchmarks behind BENCH_world.json (DESIGN.md §16):
// a dial into a never-touched synthetic ISP against a dial into one
// already dialed, live heap per 10k probed hosts, and the full identify
// scan over the realm vs the reference build at 1 and 8 workers.
// Regenerate the committed JSON with `make bench-world`.

// BenchmarkScaleColdDial dials the gateway of a never-touched
// nation-profile ISP each iteration. The realm answers it from
// derivations, so a cold dial costs what a warm one does. A fresh world
// is built every 2200 dials, outside the timer and followed by a
// collection, so the timed loop carries only one world, as the warm
// benchmark does.
func BenchmarkScaleColdDial(b *testing.B) {
	ctx := context.Background()
	isps := scaleProfiles[ScaleNation].isps
	var w *World
	b.Cleanup(func() { w.Close() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%isps == 0 {
			b.StopTimer()
			if w != nil {
				w.Close()
			}
			w = scaleBenchWorld(b)
			b.StartTimer()
		}
		if c, err := w.ScanVantage.Dial(ctx, w.scale.hostAddr(i%isps, 0), 80); err == nil {
			c.Close()
		}
	}
}

// BenchmarkScaleWarmDial is BenchmarkScaleColdDial's baseline: every
// iteration dials the gateway of the same, already-dialed ISP.
func BenchmarkScaleWarmDial(b *testing.B) {
	ctx := context.Background()
	w := scaleBenchWorld(b)
	b.Cleanup(w.Close)
	gw := w.scale.hostAddr(0, 0)
	if c, err := w.ScanVantage.Dial(ctx, gw, 80); err == nil {
		c.Close()
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c, err := w.ScanVantage.Dial(ctx, gw, 80); err == nil {
			c.Close()
		}
	}
}

// scaleBenchWorld builds a nation world and collects the garbage the
// build left, so a timed loop starts from the same heap either way.
func scaleBenchWorld(b *testing.B) *World {
	w, err := Build(Options{Scale: ScaleNation})
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	return w
}

// BenchmarkScaleMemoryPer10kHosts probes nation-profile hosts on every
// scan port, ISP by ISP, until 10k hosts are probed, and reports the
// live-heap growth per 10k probed hosts: what a sweep leaves behind,
// which the realm keeps to its product consoles.
func BenchmarkScaleMemoryPer10kHosts(b *testing.B) {
	ctx := context.Background()
	var perTenK float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, err := Build(Options{Scale: ScaleNation})
		if err != nil {
			b.Fatal(err)
		}
		before := measuredHeap()
		b.StartTimer()

		hosts := 0
		for isp := 0; hosts < 10_000; isp++ {
			for j := 0; j < w.scale.hostCount(isp); j++ {
				for _, port := range scanner.DefaultPorts {
					if c, err := w.ScanVantage.Dial(ctx, w.scale.hostAddr(isp, j), port); err == nil {
						c.Close()
					}
				}
				hosts++
			}
		}

		b.StopTimer()
		perTenK = float64(int64(measuredHeap())-int64(before)) / float64(hosts) * 10_000
		w.Close()
		b.StartTimer()
	}
	b.ReportMetric(perTenK, "heapB/10khosts")
}

// BenchmarkScaleNationScan runs one nation identify pass (seed 7) per
// iteration, with Build outside the timer, at GOMAXPROCS 1 and 2: the
// ratio of the two is the §3 scan's 1-vs-2-core scaling (DESIGN.md §7).
func BenchmarkScaleNationScan(b *testing.B) {
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w, err := Build(Options{Scale: ScaleNation, Seed: 7})
				if err != nil {
					b.Fatal(err)
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

// BenchmarkScaleFullScan runs the full identify pipeline over the city
// profile (handcrafted world + 1526 synthetic hosts) at 1 and 8
// workers: "lazy" answers the synthetic population from the realm,
// "reference" registers every synthetic host before the timer starts
// (BuildScaleReference).
func BenchmarkScaleFullScan(b *testing.B) {
	for _, mode := range []struct {
		name      string
		reference bool
	}{{"lazy", false}, {"reference", true}} {
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", mode.name, workers), func(b *testing.B) {
				ctx := context.Background()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					w, err := Build(Options{Scale: ScaleCity}, engine.WithWorkers(workers))
					if err != nil {
						b.Fatal(err)
					}
					if mode.reference {
						if err := BuildScaleReference(w); err != nil {
							b.Fatal(err)
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
