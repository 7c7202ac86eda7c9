package experiment

import (
	"runtime"
	"testing"
	"time"
)

// BenchmarkSimulatedEvent runs 200 simulated seconds of Word Count under
// T-Storm (γ = 1.8, ten nodes, Algorithm 1's re-assignment at 40 s; the run
// bench/'s plan-sim workload times: 2 779 171 events) and reports what one
// simulated event costs: wall time as sim-events/s, and the allocator as
// allocs/event and B/event from runtime.MemStats. The last two are counts,
// so they repeat and ci.sh gates them; what the engine itself still
// allocates is a root's pending record and cancellable timeout, the rest is
// the bolts building their output values.
func BenchmarkSimulatedEvent(b *testing.B) {
	var events uint64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{
			Name: "speed", Workload: WorkloadWordCount, Scheduler: SchedTStorm, Gamma: 1.8,
			Nodes: 10, Duration: 200 * time.Second, Seed: 1, GenerationPeriod: 40 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		events += res.SimEvents
	}
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "sim-events/s")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(events), "allocs/event")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(events), "B/event")
}
