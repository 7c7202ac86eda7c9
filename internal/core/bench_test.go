package core

import (
	"fmt"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/engine"
	"tstorm/internal/loaddb"
	"tstorm/internal/scheduler"
	"tstorm/internal/topology"
	"tstorm/internal/trace"
)

// stubTarget is a Target that holds one topology under a fixed
// round-robin assignment and applies nothing, so that every round of a
// generator on it does the same work.
type stubTarget struct {
	app     *engine.App
	cl      *cluster.Cluster
	current *cluster.Assignment
}

func (s *stubTarget) Topologies() []string { return []string{s.app.Topology.Name()} }
func (s *stubTarget) App(name string) (*engine.App, bool) {
	return s.app, name == s.app.Topology.Name()
}
func (s *stubTarget) Cluster() *cluster.Cluster { return s.cl }
func (s *stubTarget) CurrentAssignment(name string) (*cluster.Assignment, bool) {
	return s.current, name == s.app.Topology.Name()
}
func (s *stubTarget) DownNodes() []cluster.NodeID                    { return nil }
func (s *stubTarget) Apply(string, *cluster.Assignment) (int, error) { return 0, nil }

// stubClock never ticks: the benchmark runs the rounds itself.
type stubClock struct{}

func (stubClock) Every(time.Duration, func()) func() { return func() {} }
func (stubClock) Now() time.Time                     { return time.Time{} }
func (stubClock) Event(trace.Kind, string, string)   {}
func (stubClock) Observed() (int64, time.Time, bool) { return 0, time.Time{}, false }

// BenchmarkGeneratorRound times one forced Generator round — load-DB
// snapshot, input, Algorithm 1, the per-topology split and the apply —
// over a stub target, on a spout → middle → tail chain with ne executors
// over ne/20 nodes of four slots. ci.sh gates its allocs/op.
func BenchmarkGeneratorRound(b *testing.B) {
	for _, ne := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("Ne=%d", ne), func(b *testing.B) {
			bld := topology.NewBuilder("synth", ne/20)
			spouts := ne / 10
			bld.Spout("s", spouts).Output("default", "v")
			bld.Bolt("m", (ne-spouts)/2).Shuffle("s").Output("default", "v")
			bld.Bolt("t", ne-spouts-(ne-spouts)/2).Shuffle("m")
			top, err := bld.Build()
			if err != nil {
				b.Fatal(err)
			}
			cl, err := cluster.Uniform(ne/20, 4, 2000, 4)
			if err != nil {
				b.Fatal(err)
			}
			current, err := scheduler.RoundRobin{}.Schedule(&scheduler.Input{Topologies: []*topology.Topology{top}, Cluster: cl})
			if err != nil {
				b.Fatal(err)
			}
			db := loaddb.New(1)
			execs := top.Executors()
			for i, e := range execs {
				db.UpdateExecutorLoad(e, 50)
				db.UpdateTraffic(e, execs[(i+1)%len(execs)], float64(10+i%17))
				db.UpdateTraffic(e, execs[(i*7+3)%len(execs)], float64(5+i%11))
			}
			target := &stubTarget{app: &engine.App{Topology: top}, cl: cl, current: current}
			gen, err := StartGeneratorOn(target, stubClock{}, db, DefaultGeneratorConfig(), NewTrafficAware(2))
			if err != nil {
				b.Fatal(err)
			}
			defer gen.Stop()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !gen.Reschedule() {
					b.Fatal("round applied nothing")
				}
			}
		})
	}
}
