// Benchmarks regenerating the paper's evaluation (§V): one benchmark per
// figure, each running the corresponding experiment end to end on the
// simulated cluster and reporting the headline quantities via
// b.ReportMetric. Durations are shortened from the paper's 1000 s to keep
// `go test -bench=.` tractable; cmd/tstorm-bench runs the full-length
// versions.
//
// Additional ablation benchmarks probe the design choices DESIGN.md calls
// out: re-assignment smoothing, Algorithm 1's traffic-descending sort, and
// the scheduling algorithm's own cost as N_e and N_s grow.
package tstorm_test

import (
	"fmt"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/core"
	"tstorm/internal/engine"
	"tstorm/internal/experiment"
	"tstorm/internal/loaddb"
	"tstorm/internal/scheduler"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

// benchDuration keeps each per-figure iteration around a few seconds of
// wall time while preserving the 300 s re-assignment cycle.
const benchDuration = 500 * time.Second

func runFigure(b *testing.B, id string) *experiment.Figure {
	b.Helper()
	gens := experiment.Generators()
	var fig *experiment.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = gens[id](experiment.Options{Duration: benchDuration})
		if err != nil {
			b.Fatal(err)
		}
	}
	return fig
}

// BenchmarkFig2 regenerates Observation 1: the n1w1/n5w5/n5w10 chain
// placements.
func BenchmarkFig2(b *testing.B) {
	fig := runFigure(b, "2")
	b.ReportMetric(fig.Results["n1w1"].StableMean, "n1w1-ms")
	b.ReportMetric(fig.Results["n5w5"].StableMean, "n5w5-ms")
	b.ReportMetric(fig.Results["n5w10"].StableMean, "n5w10-ms")
}

// BenchmarkFig3 regenerates Observation 2: the overloaded single bolt.
func BenchmarkFig3(b *testing.B) {
	fig := runFigure(b, "3")
	res := fig.Results["overload"]
	b.ReportMetric(float64(res.Failed), "failed-tuples")
}

// BenchmarkFig5 regenerates the Throughput Test comparison (γ=1, 1.7, 6).
func BenchmarkFig5(b *testing.B) {
	fig := runFigure(b, "5")
	b.ReportMetric(fig.Results["Storm"].StableMean, "storm-ms")
	b.ReportMetric(fig.Results["T-Storm γ=1.7"].StableMean, "tstorm-g1.7-ms")
	b.ReportMetric(float64(fig.Results["T-Storm γ=6"].FinalNodes), "g6-nodes")
}

// BenchmarkFig6 regenerates the Word Count comparison (γ=1, 1.8, 2.2).
func BenchmarkFig6(b *testing.B) {
	fig := runFigure(b, "6")
	b.ReportMetric(fig.Results["Storm"].StableMean, "storm-ms")
	b.ReportMetric(float64(fig.Results["T-Storm γ=2.2"].FinalNodes), "g2.2-nodes")
}

// BenchmarkFig8 regenerates the Log Stream comparison (γ=1, 1.7, 2).
func BenchmarkFig8(b *testing.B) {
	fig := runFigure(b, "8")
	b.ReportMetric(fig.Results["Storm"].StableMean, "storm-ms")
	b.ReportMetric(float64(fig.Results["T-Storm γ=2"].FinalNodes), "g2-nodes")
}

// BenchmarkFig9 regenerates overload handling on Word Count.
func BenchmarkFig9(b *testing.B) {
	fig := runFigure(b, "9")
	res := fig.Results["T-Storm"]
	b.ReportMetric(float64(res.FinalNodes), "recovery-nodes")
}

// BenchmarkFig10 regenerates overload handling on Log Stream Processing.
func BenchmarkFig10(b *testing.B) {
	fig := runFigure(b, "10")
	res := fig.Results["T-Storm"]
	b.ReportMetric(float64(res.FinalNodes), "recovery-nodes")
}

// BenchmarkHeadline regenerates the abstract's claim (≥84%/27% speedup
// with 30% fewer nodes).
func BenchmarkHeadline(b *testing.B) {
	fig := runFigure(b, "headline")
	light := 1 - fig.Results["tstorm-throughput"].StableMean/fig.Results["storm-throughput"].StableMean
	heavy := 1 - fig.Results["tstorm-logstream"].StableMean/fig.Results["storm-logstream"].StableMean
	b.ReportMetric(100*light, "light-speedup-%")
	b.ReportMetric(100*heavy, "heavy-speedup-%")
}

// BenchmarkBaselines regenerates the scheduler shoot-out extension
// (default vs DEBS'13 offline/online vs T-Storm).
func BenchmarkBaselines(b *testing.B) {
	fig := runFigure(b, "baselines")
	b.ReportMetric(fig.Results[string(experiment.SchedStormDefault)].StableMean, "default-ms")
	b.ReportMetric(fig.Results[string(experiment.SchedAnielloOnline)].StableMean, "aniello-ms")
	b.ReportMetric(fig.Results[string(experiment.SchedTStorm)].StableMean, "tstorm-ms")
}

// BenchmarkAblationSmoothing compares tuple losses across a re-assignment
// with and without §IV-D's smoothing (dispatcher, delayed shutdown, spout
// halt) on the Word Count workload.
func BenchmarkAblationSmoothing(b *testing.B) {
	var lossSmooth, lossAbrupt float64
	for i := 0; i < b.N; i++ {
		for _, smooth := range []bool{true, false} {
			override := -1
			if smooth {
				override = 1
			}
			res, err := experiment.Run(experiment.Config{
				Name:     fmt.Sprintf("ablation-smooth-%v", smooth),
				Workload: experiment.WorkloadWordCount, Scheduler: experiment.SchedTStorm,
				Gamma: 1.8, Duration: benchDuration, SmoothOverride: override,
			})
			if err != nil {
				b.Fatal(err)
			}
			loss := float64(res.Failed + res.Dropped)
			if smooth {
				lossSmooth = loss
			} else {
				lossAbrupt = loss
			}
		}
	}
	b.ReportMetric(lossSmooth, "smooth-losses")
	b.ReportMetric(lossAbrupt, "abrupt-losses")
}

// syntheticInput builds a scheduling input with ne executors over k nodes
// and dense random-ish traffic, for algorithm-cost benchmarks.
func syntheticInput(b *testing.B, ne, k int) *scheduler.Input {
	b.Helper()
	bld := topology.NewBuilder("synth", k)
	spouts := ne / 10
	if spouts < 1 {
		spouts = 1
	}
	bld.Spout("s", spouts).Output("default", "v")
	bld.Bolt("m", (ne-spouts)/2).Shuffle("s").Output("default", "v")
	bld.Bolt("t", ne-spouts-(ne-spouts)/2).Shuffle("m")
	top, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.Uniform(k, 4, 2000, 4)
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
	return &scheduler.Input{
		Topologies: []*topology.Topology{top},
		Cluster:    cl,
		Load:       db.Snapshot(),
	}
}

// roundSizes are the scheduling problems the round benchmarks grow over:
// executors and nodes (4 slots each). The last three are the sizes of the
// per-layer cost table in DESIGN.md §10 — a toy, a rack, and the largest
// problem the system is specified for.
var roundSizes = []struct{ ne, k int }{
	{45, 10}, {100, 10}, {200, 20}, {400, 40}, {800, 40},
	{12, 4}, {1000, 50}, {10000, 500},
}

// benchRounds times one Schedule call per iteration at every size; ci.sh
// gates the Ne=1000 cases on allocs/op.
func benchRounds(b *testing.B, algo scheduler.Algorithm) {
	for _, sz := range roundSizes {
		b.Run(fmt.Sprintf("Ne=%d/Ns=%d", sz.ne, sz.k*4), func(b *testing.B) {
			in := syntheticInput(b, sz.ne, sz.k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := algo.Schedule(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlgorithm1 measures the scheduling algorithm's own cost as the
// problem grows — the paper claims O(N_e log N_e + N_e N_s); the placement
// kernel scans nodes, not slots, so ours is O(N_e log N_e + F + N_e K).
func BenchmarkAlgorithm1(b *testing.B) { benchRounds(b, core.NewTrafficAware(2)) }

// BenchmarkRStorm and BenchmarkHetero measure the arena contenders' rounds
// on the same inputs: same kernel, different order, score and constraints.
func BenchmarkRStorm(b *testing.B) { benchRounds(b, scheduler.RStorm{}) }
func BenchmarkHetero(b *testing.B) { benchRounds(b, scheduler.Hetero{}) }

// hotPairInput builds the adversarial case for Algorithm 1's sort: a few
// very hot executor pairs whose partners sit far apart in declaration
// order, under a tight consolidation cap. Processing hot executors first
// co-locates the pairs; declaration order fills nodes before a hot
// partner arrives.
func hotPairInput(b *testing.B) *scheduler.Input {
	b.Helper()
	const half = 30
	bld := topology.NewBuilder("hot", 10)
	bld.Spout("s", half).Output("default", "v")
	bld.Bolt("t", half).Shuffle("s")
	top, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.Uniform(10, 4, 2000, 4)
	if err != nil {
		b.Fatal(err)
	}
	db := loaddb.New(1)
	for i := 0; i < half; i++ {
		from := topology.ExecutorID{Topology: "hot", Component: "s", Index: i}
		to := topology.ExecutorID{Topology: "hot", Component: "t", Index: i}
		db.UpdateExecutorLoad(from, 100)
		db.UpdateExecutorLoad(to, 100)
		rate := 1.0
		if i < 8 {
			rate = 1000 // the hot pairs
		}
		db.UpdateTraffic(from, to, rate)
	}
	return &scheduler.Input{
		Topologies: []*topology.Topology{top},
		Cluster:    cl,
		Load:       db.Snapshot(),
	}
}

// BenchmarkAblationSortOrder isolates line 2 of Algorithm 1 (the
// descending-traffic sort): objective quality with and without it.
func BenchmarkAblationSortOrder(b *testing.B) {
	in := hotPairInput(b)
	var sorted, unsorted float64
	for i := 0; i < b.N; i++ {
		ta := core.NewTrafficAware(2)
		a1, err := ta.Schedule(in)
		if err != nil {
			b.Fatal(err)
		}
		sorted = core.InterNodeTraffic(a1, in.Load)
		ta.DisableTrafficOrder = true
		a2, err := ta.Schedule(in)
		if err != nil {
			b.Fatal(err)
		}
		unsorted = core.InterNodeTraffic(a2, in.Load)
	}
	b.ReportMetric(sorted, "sorted-objective")
	b.ReportMetric(unsorted, "unsorted-objective")
}

// BenchmarkEngineThroughput measures raw simulation speed: simulated
// events per wall second on the Word Count pipeline.
func BenchmarkEngineThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(experiment.Config{
			Name: "speed", Workload: experiment.WorkloadWordCount,
			Scheduler: experiment.SchedStormDefault, Duration: 200 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.SimEvents), "sim-events/op")
	}
}

// BenchmarkAblationLocalOrShuffle measures what Storm's locality-aware
// shuffle adds on top of T-Storm's placement: the same chain topology
// under plain shuffle vs local-or-shuffle, both consolidated on one
// worker per node.
func BenchmarkAblationLocalOrShuffle(b *testing.B) {
	run := func(local bool) float64 {
		bld := topology.NewBuilder("los", 10)
		bld.SetAckers(2)
		bld.Spout("spout", 4).Output("default", "v")
		decl := bld.Bolt("work", 8)
		if local {
			decl.LocalOrShuffle("spout")
		} else {
			decl.Shuffle("spout")
		}
		top, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		cl, err := cluster.Uniform(4, 4, 2000, 4)
		if err != nil {
			b.Fatal(err)
		}
		rt, err := engine.NewRuntime(engine.TStormConfig(), cl)
		if err != nil {
			b.Fatal(err)
		}
		app := &engine.App{
			Topology: top,
			Spouts:   map[string]func() engine.Spout{"spout": func() engine.Spout { return &benchSpout{} }},
			Bolts:    map[string]func() engine.Bolt{"work": func() engine.Bolt { return benchSink{} }},
		}
		initial, err := scheduler.TStormInitial{}.Schedule(&scheduler.Input{
			Topologies: []*topology.Topology{top}, Cluster: cl,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := rt.Submit(app, initial); err != nil {
			b.Fatal(err)
		}
		if err := rt.RunFor(120 * time.Second); err != nil {
			b.Fatal(err)
		}
		return rt.Metrics("los").Latency.MeanAfter(0)
	}
	var shuffleMS, localMS float64
	for i := 0; i < b.N; i++ {
		shuffleMS = run(false)
		localMS = run(true)
	}
	b.ReportMetric(shuffleMS, "shuffle-ms")
	b.ReportMetric(localMS, "local-or-shuffle-ms")
}

type benchSpout struct{ n int }

func (s *benchSpout) Open(*engine.Context) {}
func (s *benchSpout) NextTuple(em engine.SpoutEmitter) {
	em.EmitWithID("", []any{s.n}, s.n)
	s.n++
}
func (s *benchSpout) Ack(any)  {}
func (s *benchSpout) Fail(any) {}

type benchSink struct{}

func (benchSink) Prepare(*engine.Context)             {}
func (benchSink) Execute(tuple.Tuple, engine.Emitter) {}

// BenchmarkAblationBatching probes whether transfer batching explains the
// Fig. 2 deviation: it does not — at Fig. 2's light load the NIC is idle
// and batching (correctly) never engages, so the spread penalty is
// propagation-dominated either way. The metric pair documents that
// finding; batching pays off under bursts (see the engine test).
func BenchmarkAblationBatching(b *testing.B) {
	run := func(label string, batching bool, workers int, pin func(*topology.Topology, *cluster.Cluster) *cluster.Assignment) float64 {
		res, err := experiment.Run(experiment.Config{
			Name: label, Workload: experiment.WorkloadChain, Scheduler: experiment.SchedPinned,
			Nodes: 5, Duration: 300 * time.Second, Workers: workers,
			PinAssignment: pin, Batching: batching,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.StableMean
	}
	var penaltyPlain, penaltyBatched float64
	for i := 0; i < b.N; i++ {
		for _, batching := range []bool{false, true} {
			base := run("n1w1", batching, 1, experiment.PinAllOnFirstSlot)
			spread := run("n5w5", batching, 5, experiment.PinSpread(5, 5))
			penalty := 100 * (spread/base - 1)
			if batching {
				penaltyBatched = penalty
			} else {
				penaltyPlain = penalty
			}
		}
	}
	b.ReportMetric(penaltyPlain, "spread-penalty-%")
	b.ReportMetric(penaltyBatched, "batched-penalty-%")
}
