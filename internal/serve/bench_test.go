package serve_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/serve"
)

// BenchmarkServeSustainedQPS measures the serving layer under sustained
// concurrent load: one warm instance, GOMAXPROCS client goroutines each
// firing supervised single-worker queries back to back. ns/op is the
// per-query latency at saturation, so sustained QPS = parallelism × 1e9 /
// ns_per_op; allocs/op is the full per-query cost — communicator, clocks,
// caches — on top of the shared snapshot. Records taken with this
// benchmark are tagged "mode":"serve" by bench.sh (BENCH_MODE=serve) and
// benchdiff refuses to diff them against micro-benchmark records.
func BenchmarkServeSustainedQPS(b *testing.B) {
	par := runtime.GOMAXPROCS(0)
	inst := serve.NewInstance("bench", serve.Config{
		Dataset: "fb-sim", SnapshotOptions: lcc.SnapshotOptions{Ranks: 4}, MaxConcurrent: par,
	})
	if err := inst.Start(); err != nil {
		b.Fatal(err)
	}
	q := serve.Query{Options: lcc.Options{
		Workers: 1, Method: intersect.MethodHybrid, DoubleBuffer: true,
	}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			res, err := inst.Run(ctx, q)
			if err != nil {
				b.Error(err)
				return
			}
			if res.Triangles != pinTriangles {
				b.Errorf("Triangles = %d, want %d", res.Triangles, pinTriangles)
				return
			}
		}
	})
	b.StopTimer()
	if ctr := inst.Counters(); ctr.Rejected != 0 {
		b.Fatalf("admission rejected %d runs at MaxConcurrent=%d", ctr.Rejected, par)
	}
}

// BenchmarkServeQueuedOverload measures the queued-overload regime: twice
// as many clients as run slots, with the overflow parking in the admission
// queue instead of bouncing. ns/op is the end-to-end per-query latency
// including queue wait — the figure a 429-free deployment actually serves
// under 2× overload. The queue is sized for the full overflow, so every
// query completes (no rejections) and the determinism pins still hold on
// every result.
func BenchmarkServeQueuedOverload(b *testing.B) {
	slots := runtime.GOMAXPROCS(0)
	if slots < 2 {
		slots = 2
	}
	clients := 2 * slots
	inst := serve.NewInstance("bench-q", serve.Config{
		Dataset: "fb-sim", SnapshotOptions: lcc.SnapshotOptions{Ranks: 4},
		MaxConcurrent: slots / 2, QueueDepth: clients,
	})
	if err := inst.Start(); err != nil {
		b.Fatal(err)
	}
	q := serve.Query{Options: lcc.Options{
		Workers: 1, Method: intersect.MethodHybrid, DoubleBuffer: true,
	}}
	ctx := context.Background()
	b.SetParallelism((clients + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			res, err := inst.Run(ctx, q)
			if err != nil {
				b.Error(err)
				return
			}
			if res.Triangles != pinTriangles {
				b.Errorf("Triangles = %d, want %d", res.Triangles, pinTriangles)
				return
			}
		}
	})
	b.StopTimer()
	if ctr := inst.Counters(); ctr.Rejected != 0 {
		b.Fatalf("queue overflowed: rejected %d runs with depth %d", ctr.Rejected, clients)
	}
}
