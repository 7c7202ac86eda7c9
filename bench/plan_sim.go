package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/core"
	"tstorm/internal/decision"
	"tstorm/internal/docstore"
	"tstorm/internal/engine"
	"tstorm/internal/experiment"
	"tstorm/internal/loaddb"
	"tstorm/internal/monitor"
	"tstorm/internal/redisq"
	"tstorm/internal/scheduler"
	"tstorm/internal/sim"
	"tstorm/internal/topology"
	"tstorm/internal/workloads"
)

// plan-sim: no wall-clock data plane at all. Part one replays the paper's
// Word Count on the discrete-event backend: a batch of short T-Storm runs
// that time the DES (and, being same-seed, must all be identical), then one
// long T-Storm and one long stock-Storm run for Fig. 6. Part two runs
// scheduling rounds on a seeded synthetic input at three sizes. The DES and
// the monitor → load DB → generator → Algorithm 1 control plane do all the
// work; live and dist do none.

const (
	simGamma = 1.8
	simNodes = 10

	// The speed runs are many and short so that DES speed is a quiet
	// decile over sub-second samples, like every other rate here:
	// simSpeedRuns runs of simSpeedPerSecond × -seconds simulated seconds
	// each (≈ 12 ms wall per simulated second on the reference box).
	simSpeedRuns      = 8
	simSpeedPerSecond = 2.5
	// The Fig. 6 pair runs simFig6PerSecond × -seconds simulated seconds,
	// never less than simFig6Min: the reschedule at simReschedule of the
	// run, experiment's 120 s settle margin after it, and a stretch to
	// take the stable mean over.
	simFig6PerSecond = 10
	simFig6Min       = 200 * time.Second
	simReschedule    = 0.2
)

// planSizes are the synthetic scheduling problems: executors and nodes
// (4 slots each). Tests shrink the large one.
var planSizes = struct{ small, mid, large planSize }{
	planSize{12, 4, "ne12"}, planSize{1000, 50, "ne1000"}, planSize{10000, 500, "ne10000"},
}

type planSize struct {
	ne, nodes int
	tag       string
}

// Rounds of Algorithm 1 per measured second: at the mid size (≈ 20 ms
// each on the reference box) enough for a quiet decile, at the large size
// (≈ 2.2 s each) three at -seconds 20.
const (
	midRoundsPerSecond   = 6
	largeRoundsPerSecond = 0.15
)

// syntheticInput builds a two-topology scheduling input with ne executors
// over k nodes: spout → middle → tail chains whose loads are uniform and
// whose traffic weights come from the seed. It also returns the load
// database the snapshot was read from.
func syntheticInput(seed uint64, sz planSize) (*scheduler.Input, *loaddb.DB, error) {
	rng := rand.New(rand.NewPCG(seed, uint64(sz.ne)))
	cl, err := cluster.Uniform(sz.nodes, 4, 2000, 4)
	if err != nil {
		return nil, nil, err
	}
	db := loaddb.New(1)
	var tops []*topology.Topology
	for i, name := range []string{"synth-a", "synth-b"} {
		ne := sz.ne / 2
		if i == 1 {
			ne = sz.ne - ne
		}
		spouts := max(ne/10, 1)
		mids := max((ne-spouts)/2, 1)
		bld := topology.NewBuilder(name, max(sz.nodes/2, 1))
		bld.Spout("s", spouts).Output("default", "v")
		bld.Bolt("m", mids).Shuffle("s").Output("default", "v")
		bld.Bolt("t", max(ne-spouts-mids, 1)).Shuffle("m")
		top, err := bld.Build()
		if err != nil {
			return nil, nil, err
		}
		tops = append(tops, top)
		execs := top.Executors()
		for j, e := range execs {
			db.UpdateExecutorLoad(e, 50)
			db.UpdateTraffic(e, execs[(j+1)%len(execs)], float64(10+rng.IntN(17)))
			db.UpdateTraffic(e, execs[(j*7+3)%len(execs)], float64(5+rng.IntN(11)))
		}
	}
	return scheduler.NewInput(tops, cl, db.Snapshot(), 0), db, nil
}

// checkAssignment verifies a scheduling round's output: every executor
// placed on a real slot and no slot shared between topologies; for
// Algorithm 1 additionally at most one slot per topology per node.
func checkAssignment(in *scheduler.Input, a *cluster.Assignment, oneSlotPerNode bool) error {
	if a == nil {
		return fmt.Errorf("nil assignment")
	}
	owner := make(map[cluster.SlotID]string)
	perNode := make(map[string]map[cluster.NodeID]cluster.SlotID)
	for _, top := range in.Topologies {
		perNode[top.Name()] = make(map[cluster.NodeID]cluster.SlotID)
		for _, e := range top.Executors() {
			s, ok := a.Slot(e)
			if !ok {
				return fmt.Errorf("%v not placed", e)
			}
			if _, ok := in.Cluster.Node(s.Node); !ok {
				return fmt.Errorf("%v placed on unknown node %s", e, s.Node)
			}
			if o, taken := owner[s]; taken && o != top.Name() {
				return fmt.Errorf("slot %s shared by %s and %s", s, o, top.Name())
			}
			owner[s] = top.Name()
			if prev, seen := perNode[top.Name()][s.Node]; oneSlotPerNode && seen && prev != s {
				return fmt.Errorf("%s uses two slots on node %s", top.Name(), s.Node)
			}
			perNode[top.Name()][s.Node] = s
		}
	}
	return nil
}

// interNodeFraction is the share of the input's traffic that crosses
// nodes under an assignment. It is exact: the same input and assignment
// give the same number bit for bit.
func interNodeFraction(in *scheduler.Input, a *cluster.Assignment) float64 {
	var total float64
	for _, f := range in.Load.Flows {
		total += f.Rate
	}
	if total == 0 {
		return 0
	}
	return core.InterNodeTraffic(a, in.Load) / total
}

// contenders is every scheduling algorithm the system registers, by name.
func contenders() *scheduler.Registry {
	reg := scheduler.NewRegistry()
	scheduler.RegisterBuiltins(reg)
	reg.Register(core.NewTrafficAware(simGamma))
	return reg
}

func runPlanSim(o opts) (*result, error) {
	res := &result{Workload: "plan-sim"}
	if o.traced {
		// Nothing here has factories to decorate: the traced pass is the
		// step-by-step control loop and the probes, not a second copy of
		// the untraced work.
		return res, tracedPlanSim(o, res)
	}

	// Set-up is building the scheduling problems the rounds run on.
	type problem struct {
		in *scheduler.Input
		db *loaddb.DB
	}
	probs, setups, err := setupMedian(o.setups, func() (map[string]problem, error) {
		out := make(map[string]problem)
		for _, sz := range []planSize{planSizes.small, planSizes.mid, planSizes.large} {
			in, db, err := syntheticInput(o.seed, sz)
			if err != nil {
				return nil, err
			}
			out[sz.tag] = problem{in, db}
		}
		return out, nil
	}, func(map[string]problem) {})
	if err != nil {
		return nil, err
	}
	res.setSamples("setup_s", "s", setups)

	// Part one: the DES runs.
	type simRun struct {
		r           *experiment.Result
		wallS, cpuS float64
	}
	runSim := func(kind experiment.SchedulerKind, simFor time.Duration) (simRun, error) {
		cfg := experiment.Config{
			Workload:         experiment.WorkloadWordCount,
			Scheduler:        kind,
			Nodes:            simNodes,
			Duration:         simFor,
			Seed:             o.seed,
			GenerationPeriod: time.Duration(simReschedule * float64(simFor)),
		}
		if kind == experiment.SchedTStorm {
			cfg.Gamma = simGamma
		}
		c0, err := selfUsage()
		if err != nil {
			return simRun{}, err
		}
		t0 := time.Now()
		r, err := experiment.Run(cfg)
		if err != nil {
			return simRun{}, fmt.Errorf("experiment %s: %w", kind, err)
		}
		wall := time.Since(t0).Seconds()
		c1, err := selfUsage()
		res.Attempted++
		return simRun{r, wall, c1.sub(c0).cpuS()}, err
	}
	var evRates, cpuPer, speedX []float64
	sample := func(sr simRun, simFor time.Duration) {
		evRates = append(evRates, float64(sr.r.SimEvents)/sr.wallS)
		cpuPer = append(cpuPer, sr.cpuS*1e6/float64(sr.r.SimEvents))
		speedX = append(speedX, simFor.Seconds()/sr.wallS)
	}
	speedFor := time.Duration(simSpeedPerSecond * o.seconds * float64(time.Second))
	var first *experiment.Result
	for i := 0; i < simSpeedRuns; i++ {
		sr, err := runSim(experiment.SchedTStorm, speedFor)
		if err != nil {
			return nil, err
		}
		sample(sr, speedFor)
		// Same seed, same inputs: the simulation must repeat exactly.
		if first == nil {
			first = sr.r
		} else if r := sr.r; r.SimEvents != first.SimEvents || r.Completions != first.Completions || r.Failed != first.Failed ||
			len(r.Reassignments) != len(first.Reassignments) || r.StableMean != first.StableMean || r.FinalNodes != first.FinalNodes {
			res.problem("same-seed T-Storm runs differ: events %d/%d completions %d/%d stable mean %v/%v",
				first.SimEvents, r.SimEvents, first.Completions, r.Completions, first.StableMean, r.StableMean)
		}
	}
	fig6For := max(time.Duration(simFig6PerSecond*o.seconds*float64(time.Second)), simFig6Min)
	ts, err := runSim(experiment.SchedTStorm, fig6For)
	if err != nil {
		return nil, err
	}
	def, err := runSim(experiment.SchedStormDefault, fig6For)
	if err != nil {
		return nil, err
	}
	sample(ts, fig6For)
	sample(def, fig6For)
	// Fig. 6: T-Storm's stable average processing time is below Storm's.
	if !(ts.r.StableMean > 0 && ts.r.StableMean < def.r.StableMean) {
		res.problem("T-Storm stable mean %.3f ms is not below the default scheduler's %.3f ms", ts.r.StableMean, def.r.StableMean)
	}
	res.setQuiet("throughput_per_s", "1/s", evRates, false)
	res.setQuiet("cpu_us_per_unit", "us", cpuPer, true)
	res.tputTps, _ = res.get("throughput_per_s")
	res.setQuiet("sim.speed_x", "ratio", speedX, false)
	res.setQuiet("sim.events_per_s", "1/s", evRates, false)
	res.set("engine.sim_events", "count", float64(ts.r.SimEvents))
	res.set("engine.completions", "count", float64(ts.r.Completions))
	res.set("engine.failed", "count", float64(ts.r.Failed))
	res.set("engine.reassignments", "count", float64(len(ts.r.Reassignments)))
	res.set("engine.stable_mean_ms.tstorm", "ms", ts.r.StableMean)
	res.set("engine.stable_mean_ms.default", "ms", def.r.StableMean)
	res.set("engine.final_nodes.tstorm", "count", float64(ts.r.FinalNodes))

	// Part two: scheduling rounds.
	ta := core.NewTrafficAware(simGamma)
	round := func(algo scheduler.Algorithm, in *scheduler.Input) (*cluster.Assignment, float64) {
		t0 := time.Now()
		a, err := algo.Schedule(in)
		ms := msSince(t0)
		res.Attempted++
		if err == nil {
			err = checkAssignment(in, a, algo.Name() == ta.Name())
		}
		if err != nil {
			res.problem("%s at Ne=%d: %v", algo.Name(), in.NumExecutors(), err)
		}
		return a, ms
	}
	large, mid, small := probs[planSizes.large.tag], probs[planSizes.mid.tag], probs[planSizes.small.tag]

	// The end-to-end latencies of the control plane: a round on the mid-size
	// problem is the typical case, a round on the largest problem the
	// system is specified for is its tail. Both are quiet deciles: on a
	// shared box a round only ever gets slower.
	var largeMs []float64
	for i := 0; i < max(int(largeRoundsPerSecond*o.seconds+0.5), 1); i++ {
		_, ms := round(ta, large.in)
		largeMs = append(largeMs, ms)
	}
	res.setQuiet("latency_tail_ms", "ms", largeMs, true)
	res.note("latency_tail_ms", "Algorithm 1 round at "+planSizes.large.tag+", quiet decile")
	res.setQuiet("core.tstorm_round_ms."+planSizes.large.tag, "ms", largeMs, true)

	// Every registered contender at the small and mid sizes.
	reg := contenders()
	var midMs []float64
	for _, name := range reg.Names() {
		algo, _ := reg.Get(name)
		round(algo, small.in)
		a, ms := round(algo, mid.in)
		if a == nil {
			continue // the round failed and is already on the books
		}
		if name == ta.Name() {
			res.set("scheduler.nodes_used.tstorm."+planSizes.mid.tag, "count", float64(a.NumUsedNodes()))
		} else {
			res.set("scheduler.round_ms."+name+"."+planSizes.mid.tag, "ms", ms)
		}
		switch name {
		case ta.Name(), "rstorm", "hetero", "default":
			res.set("scheduler.predicted_inter_node_fraction."+name+"."+planSizes.mid.tag, "ratio", interNodeFraction(mid.in, a))
		}
	}
	var smallMs []float64
	for i := 0; i < 20; i++ {
		_, ms := round(ta, small.in)
		smallMs = append(smallMs, ms)
	}
	res.setQuiet("core.tstorm_round_ms."+planSizes.small.tag, "ms", smallMs, true)
	for i := 0; i < max(int(midRoundsPerSecond*o.seconds), 10); i++ {
		_, ms := round(ta, mid.in)
		midMs = append(midMs, ms)
	}
	res.setQuiet("latency_p50_ms", "ms", midMs, true)
	res.note("latency_p50_ms", "Algorithm 1 round at "+planSizes.mid.tag+", quiet decile")
	res.setQuiet("core.tstorm_round_ms."+planSizes.mid.tag, "ms", midMs, true)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	round(ta, mid.in)
	runtime.ReadMemStats(&m1)
	res.set("core.tstorm_allocs_per_round."+planSizes.mid.tag, "count", float64(m1.Mallocs-m0.Mallocs))

	probed := *mid.in
	probed.Probe = decision.NewBuilder()
	_, probedMs := round(ta, &probed)
	res.set("decision.probe_overhead_x."+planSizes.mid.tag, "ratio", probedMs/median(midMs))

	// The control plane's neighbours of a round at the large size.
	t0 := time.Now()
	scheduler.NewInput(large.in.Topologies, large.in.Cluster, large.in.Load, 0.9)
	res.set("scheduler.new_input_ms."+planSizes.large.tag, "ms", msSince(t0))
	loads := make(map[topology.ExecutorID]float64, len(large.in.Load.ExecLoad))
	for e, l := range large.in.Load.ExecLoad {
		loads[e] = l
	}
	flows := make(map[loaddb.FlowKey]float64, len(large.in.Load.Flows))
	for _, f := range large.in.Load.Flows {
		flows[loaddb.FlowKey{From: f.From, To: f.To}] = f.Rate
	}
	t0 = time.Now()
	large.db.ApplyWindow(loads, flows)
	res.set("loaddb.apply_window_ms."+planSizes.large.tag, "ms", msSince(t0))
	t0 = time.Now()
	large.db.Snapshot()
	res.set("loaddb.snapshot_ms."+planSizes.large.tag, "ms", msSince(t0))

	procMetrics(res)
	return res, nil
}

// tracedPlanSim is plan-sim's traced pass: the control loop driven step by
// step under spans, the two resource-aware contenders once at the large
// size (seconds each, so not in the untraced pass), and the DES kernel
// probe.
func tracedPlanSim(o opts, res *result) error {
	if err := tracedControlLoop(o, res, newTracer()); err != nil {
		return err
	}
	in, _, err := syntheticInput(o.seed, planSizes.large)
	if err != nil {
		return err
	}
	reg := contenders()
	for _, name := range []string{"rstorm", "hetero"} {
		algo, _ := reg.Get(name)
		t0 := time.Now()
		a, err := algo.Schedule(in)
		res.set("scheduler.round_ms."+name+"."+planSizes.large.tag, "ms", msSince(t0))
		res.Attempted++
		if err == nil {
			err = checkAssignment(in, a, false)
		}
		if err != nil {
			res.problem("%s at Ne=%d: %v", name, in.NumExecutors(), err)
		}
	}
	simProbe(res)
	return nil
}

// tracedControlLoop drives the monitor → load DB → generator → apply loop
// one step at a time on a simulated Word Count, with one span per step
// under a round parent.
func tracedControlLoop(o opts, res *result, tr *tracer) error {
	cl, err := cluster.Uniform(simNodes, 4, 2000, 4)
	if err != nil {
		return err
	}
	ecfg := engine.TStormConfig()
	ecfg.Seed = o.seed
	rt, err := engine.NewRuntime(ecfg, cl)
	if err != nil {
		return err
	}
	wcfg := workloads.DefaultWordCountConfig()
	wcfg.Queue, wcfg.Sink = redisq.NewServer(), docstore.NewStore()
	app, err := workloads.NewWordCount(wcfg)
	if err != nil {
		return err
	}
	stopFeed := workloads.StartCorpusFeeder(rt.Sim(), wcfg.Queue, wcfg.QueueKey, 120)
	defer stopFeed()
	in0 := &scheduler.Input{Topologies: []*topology.Topology{app.Topology}, Cluster: cl}
	initial, err := scheduler.TStormInitial{}.Schedule(in0)
	if err != nil {
		return err
	}
	if err := rt.Submit(app, initial); err != nil {
		return err
	}
	db := loaddb.New(0.5)
	monitor.Start(rt, db, monitor.DefaultPeriod)
	buf := tr.buf()
	algo := core.NewTrafficAware(simGamma)
	const rounds = 5
	for i := 0; i < rounds; i++ {
		if err := rt.RunFor(3 * monitor.DefaultPeriod); err != nil {
			return err
		}
		parent := span{Name: "control.round", Start: time.Now().UnixNano(), ID: tr.id()}
		parent.Root = parent.ID
		step := func(name string, fn func()) {
			s := span{Name: name, Start: time.Now().UnixNano(), ID: tr.id(), Parent: parent.ID, Root: parent.ID}
			s.Sent = s.Start
			fn()
			s.End = time.Now().UnixNano()
			buf.add(s)
		}
		var snap *loaddb.Snapshot
		var in *scheduler.Input
		var next *cluster.Assignment
		var schedErr, applyErr error
		step("loaddb.snapshot", func() { snap = db.Snapshot() })
		step("scheduler.new_input", func() {
			in = scheduler.NewInput([]*topology.Topology{app.Topology}, cl, snap, 0.9)
		})
		step("core.schedule", func() { next, schedErr = algo.Schedule(in) })
		res.Attempted++
		if schedErr == nil {
			schedErr = checkAssignment(in, next, true)
		}
		if schedErr != nil {
			res.problem("control loop round %d: %v", i, schedErr)
			continue
		}
		step("engine.apply", func() { applyErr = rt.PublishAssignment(app.Topology.Name(), next) })
		if applyErr != nil {
			res.problem("control loop round %d: apply: %v", i, applyErr)
		}
		parent.End = time.Now().UnixNano()
		buf.add(parent)
	}
	spans := tr.drain()
	sum := analyse(spans)
	for _, name := range []string{"loaddb.snapshot", "scheduler.new_input", "core.schedule", "engine.apply"} {
		if h := sum.selfNs[name]; h != nil {
			v, _ := h.quantile(0.5)
			res.setN("control."+name+"_us", "us", v/1e3, int(h.n))
		}
	}
	return writeSpanFile(o, res, spans)
}

// simProbe times the DES kernel alone: schedule and fire a million events.
func simProbe(res *result) {
	n := probeCalls
	eng := sim.NewEngine(1)
	fired := 0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		eng.After(time.Duration(i%1000)*time.Microsecond, func() { fired++ })
	}
	if err := eng.Run(); err != nil || fired != n {
		res.problem("sim kernel fired %d of %d events (%v)", fired, n, err)
	}
	res.setN("sim.schedule_fire_ns", "ns", float64(time.Since(t0))/float64(n), n)
}
