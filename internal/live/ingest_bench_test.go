package live

import (
	"fmt"
	"testing"
	"time"

	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

// BenchmarkIngest is the receiving half of the inter-process hop with no
// executor behind it: one op ingests one data frame of Word Count pairs
// for a resident bolt — decode into a pooled batch over a pooled slab,
// enqueue — and then takes the batch off the queue and releases it, as
// the bolt would after processing. The payloads stay encoded (decoding
// them is the executor's work, in its timed window). ci.sh gates
// allocs/op: it must not depend on the tuples per frame.
func BenchmarkIngest(b *testing.B) {
	for _, k := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("tuples=%d", k), func(b *testing.B) {
			eng, _ := benchEngine(b)
			to := topology.ExecutorID{Topology: "bench", Component: "count", Index: 0}
			le := eng.execs[to]
			enc, _ := encodeValues(tuple.Values{"storm", int64(7)})
			f := openDataFrame(nil, to, false)
			for i := 0; i < k; i++ {
				f.add(&liveMsg{
					tup:    tuple.Tuple{Root: 42, Edge: tuple.ID(i + 1), Stream: topology.DefaultStream, SrcComponent: "split", Size: 16},
					bornAt: time.Unix(0, 1_700_000_000_000_000_000),
					from:   1,
				}, enc)
			}
			frame := f.bytes()
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.Ingest(frame); err != nil {
					b.Fatal(err)
				}
				batch := <-le.in
				le.credit(len(batch.msgs))
				eng.pending.Add(-int64(len(batch.msgs)))
				eng.releaseInput(batch, 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/tuple")
		})
	}
}
