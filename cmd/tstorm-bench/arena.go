package main

import (
	"fmt"
	"sort"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/core"
	"tstorm/internal/decision"
	"tstorm/internal/docstore"
	"tstorm/internal/live"
	"tstorm/internal/loaddb"
	"tstorm/internal/scheduler"
	"tstorm/internal/topology"
	"tstorm/internal/workloads"
)

// arenaRun is one contender's row in the arena ranking. Every contender
// starts from the identical TStormInitial placement and applies its own
// reschedule once the monitor has load data, so the measured window
// reflects the schedule each algorithm actually produces.
type arenaRun struct {
	Scheduler         string
	TuplesPerSec      float64
	P99LatencyMs      float64
	InterNodeFraction float64
	// DecisionLatencyMs is the median wall time of the contender's
	// Schedule passes over the live snapshot (probe wired, so the cost
	// includes decision recording — the production configuration).
	DecisionLatencyMs float64
	NodesUsed         int
	Relaxations       int
}

// runArena benchmarks every registered scheduling algorithm — the
// builtins plus Algorithm 1 — over the self-fed Word Count on the live
// backend and prints a ranking. A contender that errors or drops an
// executor from the live placement fails the whole run; the cross-topology
// check (complete placement, no slot shared between topologies) is
// TestContendersOnTwoTopologies in internal/core.
func runArena(duration time.Duration, seed uint64) error {
	if duration <= 0 {
		duration = 2 * time.Second
	}
	reg := scheduler.NewRegistry()
	scheduler.RegisterBuiltins(reg)
	reg.Register(core.NewTrafficAware(1.5))
	names := reg.Names()
	fmt.Printf("Scheduler arena: %d contenders, self-fed Word Count, 4 nodes × 4 slots, %.2gs measure window\n\n",
		len(names), duration.Seconds())

	var runs []arenaRun
	for _, name := range names {
		algo, _ := reg.Get(name)
		run, err := arenaOnce(algo, duration, seed)
		if err != nil {
			return fmt.Errorf("arena %s run: %w", name, err)
		}
		runs = append(runs, run)
		fmt.Printf("%-16s  %10.0f tuples/s  p99 %7.2f ms  inter-node %5.1f%%  decision %7.3f ms  nodes %d  relaxations %d\n",
			run.Scheduler, run.TuplesPerSec, run.P99LatencyMs,
			100*run.InterNodeFraction, run.DecisionLatencyMs, run.NodesUsed, run.Relaxations)
	}

	sort.SliceStable(runs, func(i, j int) bool { return runs[i].TuplesPerSec > runs[j].TuplesPerSec })
	fmt.Printf("\nRanking by throughput:\n")
	for i, r := range runs {
		fmt.Printf("  %2d. %-16s %10.0f tuples/s  p99 %7.2f ms  inter-node %5.1f%%  decision %7.3f ms\n",
			i+1, r.Scheduler, r.TuplesPerSec, r.P99LatencyMs, 100*r.InterNodeFraction, r.DecisionLatencyMs)
	}

	return nil
}

// arenaOnce measures one contender on the live backend — identical
// initial schedule, monitor warm-up, one forced reschedule by the
// contender, measured steady-state window — plus extra
// probe-wired Generate rounds after the window so the decision-latency
// median has samples beyond the single reschedule.
func arenaOnce(algo scheduler.Algorithm, measure time.Duration, seed uint64) (arenaRun, error) {
	cl, err := cluster.Uniform(4, 4, 2000, 4)
	if err != nil {
		return arenaRun{}, err
	}
	wcfg := workloads.DefaultSelfFedWordCountConfig()
	wcfg.Sink = docstore.NewStore()
	app, err := workloads.NewSelfFedWordCount(wcfg)
	if err != nil {
		return arenaRun{}, err
	}
	in := scheduler.NewInput([]*topology.Topology{app.Topology}, cl, nil, 0)
	initial, err := scheduler.TStormInitial{}.Schedule(in)
	if err != nil {
		return arenaRun{}, err
	}

	lcfg := live.DefaultConfig()
	lcfg.Seed = seed
	eng, err := live.NewEngine(lcfg, cl)
	if err != nil {
		return arenaRun{}, err
	}
	if err := eng.Submit(app, initial); err != nil {
		return arenaRun{}, err
	}
	if err := eng.Start(); err != nil {
		return arenaRun{}, err
	}
	defer eng.Stop()

	const monitorPeriod = 250 * time.Millisecond
	db := loaddb.New(0.5)
	mon := live.StartMonitor(eng, db, monitorPeriod)
	defer mon.Stop()
	hist := decision.NewHistory(16)
	gen, err := live.StartGenerator(eng, db, live.GeneratorConfig{
		Period:               time.Hour, // one forced reschedule below
		CapacityFraction:     0.9,
		ImprovementThreshold: 0.10,
		History:              hist,
	}, algo)
	if err != nil {
		return arenaRun{}, err
	}
	defer gen.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for mon.Samples() < 4 && time.Now().Before(deadline) {
		time.Sleep(monitorPeriod / 5)
	}
	gen.Reschedule()
	resched, ok := hist.Last()
	if !ok {
		return arenaRun{}, fmt.Errorf("reschedule recorded no decision report")
	}

	// The applied placement must still cover the whole topology — a
	// contender that drops executors on the live path fails here.
	placed := make(map[topology.ExecutorID]bool)
	for _, p := range eng.Placement() {
		placed[p.Executor] = true
	}
	for _, e := range app.Topology.Executors() {
		if !placed[e] {
			return arenaRun{}, fmt.Errorf("executor %v missing from live placement after reschedule", e)
		}
	}

	// Regain steady state, discard the warm-up window's latency samples
	// (they include the reschedule stall), then measure.
	time.Sleep(lcfg.SpoutHaltDelay + time.Second)
	eng.DrainLatency()
	t0 := eng.Totals()
	start := time.Now()
	time.Sleep(measure)
	w := eng.Totals().Sub(t0)
	elapsed := time.Since(start).Seconds()
	p99 := eng.DrainLatency().Quantile(0.99)

	// Extra probe-wired rounds (threshold gate intact, so steady state is
	// preserved as long as the measured window; it is over anyway).
	for i := 0; i < 4; i++ {
		gen.Generate()
	}
	var durations []float64
	for _, rep := range hist.Reports() {
		durations = append(durations, float64(rep.Duration)/float64(time.Millisecond))
	}

	return arenaRun{
		Scheduler:         algo.Name(),
		TuplesPerSec:      float64(w.Processed) / elapsed,
		P99LatencyMs:      p99,
		InterNodeFraction: w.InterNodeFraction(),
		DecisionLatencyMs: median(durations),
		NodesUsed:         resched.NodesUsed,
		Relaxations:       resched.Relaxations,
	}, nil
}

// median returns the middle value of xs (mean of the middle two when
// even); xs must be non-empty and is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
