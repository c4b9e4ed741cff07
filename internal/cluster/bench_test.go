package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"filtermap/internal/engine"
	"filtermap/internal/plan"
	"filtermap/internal/world"
)

// BenchmarkClusterFanout measures shard fan-out on the mechanism
// survey: one coordinator, N in-process workers over the local
// transport, each executing roster-ISP shards against its own world
// replica. Each worker's engine pool is pinned to one thread so a
// worker models one fixed-capacity machine; on a multi-core host the
// 2- and 4-worker rows amortize the 1-worker serialization baseline,
// while on a single core they isolate pure coordination overhead.
func BenchmarkClusterFanout(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			coord := NewCoordinator(Options{LeaseTTL: time.Minute})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			for i := 0; i < workers; i++ {
				w := NewWorker(fmt.Sprintf("bench-%d", i), LocalTransport{Coord: coord}, engine.WithWorkers(1))
				w.Poll = time.Millisecond
				w.HeartbeatEvery = time.Second
				go w.Run(ctx) //nolint:errcheck // exits on cancel
			}
			req := plan.Request{
				Kind:  plan.KindMechanisms,
				World: world.Options{Mechanisms: &world.MechanismOptions{}},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := coord.Run(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
