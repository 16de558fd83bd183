package fault_test

import (
	"fmt"
	"io"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/fault"
	"ecosched/internal/metasched"
)

// BenchmarkFaultRate measures full fault-session throughput at increasing
// fault pressure: 0% (idle fault layer — its overhead floor), 5% and 20%
// per-iteration event rates. Each op is one complete 10-iteration seeded
// session including plan compilation, event injection, retry re-queues and
// the audit after every event and iteration; placed/op reports how many of
// the 8 jobs still land under that pressure. CI publishes the results as
// the BENCH_fault.json artifact.
func BenchmarkFaultRate(b *testing.B) {
	for _, rate := range []float64{0, 0.05, 0.20} {
		b.Run(fmt.Sprintf("rate=%d%%", int(rate*100)), func(b *testing.B) {
			placed := 0
			for i := 0; i < b.N; i++ {
				seed := uint64(i%50 + 1)
				sched := chaosScheduler(b, seed, alloc.ALP{}, metasched.MinimizeTime)
				plan := chaosPlan(b, sched.Grid().Pool(), seed, rate)
				sess, err := fault.NewSession(sched, plan, io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				if err := sess.Run(chaosIterations); err != nil {
					b.Fatal(err)
				}
				placed += sched.PlacedCount()
			}
			b.ReportMetric(float64(placed)/float64(b.N), "placed/op")
		})
	}
}
