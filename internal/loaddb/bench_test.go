package loaddb

import (
	"fmt"
	"testing"

	"tstorm/internal/topology"
)

// fillSynthetic writes one load sample per executor and two traffic
// samples per executor into db, the shape of the benchmark's synthetic
// scheduling problems: ne executors over two topologies of
// spout → middle → tail chains, 2·ne flows.
func fillSynthetic(db *DB, ne int) {
	for ti, topo := range []string{"synth-a", "synth-b"} {
		n := ne / 2
		if ti == 1 {
			n = ne - n
		}
		spouts := max(n/10, 1)
		mids := max((n-spouts)/2, 1)
		execs := make([]topology.ExecutorID, n)
		for i := range execs {
			comp, idx := "s", i
			switch {
			case i >= spouts+mids:
				comp, idx = "t", i-spouts-mids
			case i >= spouts:
				comp, idx = "m", i-spouts
			}
			execs[i] = topology.ExecutorID{Topology: topo, Component: comp, Index: idx}
		}
		for j, e := range execs {
			db.UpdateExecutorLoad(e, 50)
			db.UpdateTraffic(e, execs[(j+1)%n], float64(10+j%17))
			db.UpdateTraffic(e, execs[(j*7+3)%n], float64(5+j%11))
		}
	}
}

// BenchmarkSnapshot times one snapshot at Ne = 1 000 and 10 000. Cold:
// every pair arrived since the last snapshot, so the snapshot sorts (the
// first one after start-up or a new topology). Warm: no pair arrived
// since, only values changed (every generator round once the monitors
// have seen each pair), so the snapshot is one copy.
func BenchmarkSnapshot(b *testing.B) {
	for _, ne := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("cold/Ne=%d", ne), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := New(0.5)
				fillSynthetic(db, ne)
				b.StartTimer()
				db.Snapshot()
			}
		})
		b.Run(fmt.Sprintf("warm/Ne=%d", ne), func(b *testing.B) {
			db := New(0.5)
			fillSynthetic(db, ne)
			db.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.Snapshot()
			}
		})
	}
}
