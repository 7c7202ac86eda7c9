package scheduler

import (
	"fmt"
	"testing"

	"tstorm/internal/cluster"
	"tstorm/internal/loaddb"
	"tstorm/internal/topology"
)

// BenchmarkNewInput times building one scheduling input at Ne = 1 000
// and 10 000 executors (two topologies, 2·Ne flows) from a snapshot.
func BenchmarkNewInput(b *testing.B) {
	for _, ne := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("Ne=%d", ne), func(b *testing.B) {
			cl, err := cluster.Uniform(ne/20, 4, 2000, 4)
			if err != nil {
				b.Fatal(err)
			}
			db := loaddb.New(1)
			var tops []*topology.Topology
			for i, name := range []string{"synth-a", "synth-b"} {
				n := ne / 2
				if i == 1 {
					n = ne - n
				}
				spouts := max(n/10, 1)
				bld := topology.NewBuilder(name, ne/40)
				bld.Spout("s", spouts).Output("default", "v")
				bld.Bolt("m", (n-spouts)/2).Shuffle("s").Output("default", "v")
				bld.Bolt("t", n-spouts-(n-spouts)/2).Shuffle("m")
				top, err := bld.Build()
				if err != nil {
					b.Fatal(err)
				}
				tops = append(tops, top)
				execs := top.Executors()
				for j, e := range execs {
					db.UpdateExecutorLoad(e, 50)
					db.UpdateTraffic(e, execs[(j+1)%len(execs)], float64(10+j%17))
					db.UpdateTraffic(e, execs[(j*7+3)%len(execs)], float64(5+j%11))
				}
			}
			snap := db.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				NewInput(tops, cl, snap, 0.9)
			}
		})
	}
}
