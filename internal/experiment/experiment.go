// Package experiment is the evaluation harness: it assembles the paper's
// cluster (Table II: 10 nodes, dual 2.0 GHz dual-core Xeons, 1 Gbps),
// runs a workload under a chosen scheduler for the experiment duration,
// and collects the series the paper plots — 1-minute average processing
// times, failed-tuple counts and worker nodes in use. Every figure of §V
// has a generator in figures.go.
package experiment

import (
	"fmt"
	"math"
	"sort"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/core"
	"tstorm/internal/docstore"
	"tstorm/internal/engine"
	"tstorm/internal/loaddb"
	"tstorm/internal/metrics"
	"tstorm/internal/monitor"
	"tstorm/internal/redisq"
	"tstorm/internal/scheduler"
	"tstorm/internal/sim"
	"tstorm/internal/topology"
	"tstorm/internal/trace"
	"tstorm/internal/workloads"
)

// SchedulerKind selects the scheduling system under test.
type SchedulerKind string

// The schedulers compared in §V.
const (
	// SchedStormDefault is stock Storm with the default round-robin
	// scheduler (the paper's "Storm" baseline).
	SchedStormDefault SchedulerKind = "storm-default"
	// SchedTStorm is the full T-Storm stack: monitors, load DB, schedule
	// generator running Algorithm 1, custom scheduler, smooth
	// re-assignment.
	SchedTStorm SchedulerKind = "tstorm"
	// SchedAnielloOnline is Storm plus the DEBS'13 online scheduler.
	SchedAnielloOnline SchedulerKind = "aniello-online"
	// SchedAnielloOffline is Storm with the DEBS'13 offline scheduler
	// applied at submission.
	SchedAnielloOffline SchedulerKind = "aniello-offline"
	// SchedLoadBalanced is the traffic-blind ablation: runtime-load-aware
	// least-loaded placement under T-Storm's one-slot-per-node rule.
	SchedLoadBalanced SchedulerKind = "load-balanced"
	// SchedPinned applies a hand-built fixed assignment (Figs. 2/3).
	SchedPinned SchedulerKind = "pinned"
)

// WorkloadKind selects the application under test.
type WorkloadKind string

// The paper's workloads.
const (
	WorkloadThroughput WorkloadKind = "throughput"
	WorkloadWordCount  WorkloadKind = "wordcount"
	WorkloadLogStream  WorkloadKind = "logstream"
	WorkloadChain      WorkloadKind = "chain"
)

// Config describes one experiment run.
type Config struct {
	Name      string
	Workload  WorkloadKind
	Scheduler SchedulerKind
	// Gamma is the consolidation factor (T-Storm only).
	Gamma float64
	// Nodes is the cluster size (paper: 10).
	Nodes int
	// Duration is the run length (paper: 1000 s).
	Duration time.Duration
	// StabilizeAfter is the cutoff for the stable-mean summary (the
	// paper "counts average processing times after" this instant).
	StabilizeAfter time.Duration
	Seed           uint64

	// FeedRate is lines/s for the queue-fed workloads (0 = default).
	FeedRate float64
	// Workers overrides the topology's requested worker count N_u.
	Workers int
	// ChainCfg overrides the chain workload's shape (Figs. 2/3).
	ChainCfg *workloads.ChainConfig
	// PinAssignment builds the fixed placement for SchedPinned, given
	// the built topology and cluster.
	PinAssignment func(*topology.Topology, *cluster.Cluster) *cluster.Assignment
	// SmoothOverride forces smooth re-assignment on (1) or off (-1);
	// 0 keeps the scheduler's default. Used by the ablation benches.
	SmoothOverride int
	// GenerationPeriod overrides the schedule generation period
	// (paper default: 300 s).
	GenerationPeriod time.Duration
	// Trace, when non-nil, receives the run's structured runtime events.
	Trace *trace.Recorder
	// Batching enables Storm 0.8-style transfer batching (1 ms flush),
	// used by the batching ablation.
	Batching bool
}

// settleMargin is how long after the last re-assignment the system is
// given to stabilize before stable means are counted.
const settleMargin = 120 * time.Second

// settledMean averages the latency series from the later of minStart and
// (last re-assignment + settleMargin), weighting buckets by sample count.
// It falls back to the whole-series mean when the settled window is empty.
func settledMean(res *Result, minStart time.Duration) float64 {
	cut := sim.Time(minStart)
	if n := len(res.Reassignments); n > 0 {
		if settled := res.Reassignments[n-1].At.Add(settleMargin); settled > cut {
			cut = settled
		}
	}
	var sum float64
	var count int64
	for _, p := range res.Latency {
		if p.Start >= cut {
			sum += p.Sum
			count += p.Count
		}
	}
	if count == 0 {
		// The settle window extends past the run's end (short runs): use
		// the freshest bucket instead of polluting the mean with the
		// re-assignment spike.
		n := len(res.Latency)
		for _, p := range res.Latency[max(0, n-1):] {
			sum += p.Sum
			count += p.Count
		}
	}
	if count == 0 {
		return math.NaN()
	}
	return sum / float64(count)
}

// defaultFeedRates reproduce moderate utilization on the 10-node cluster.
var defaultFeedRates = map[WorkloadKind]float64{
	WorkloadWordCount: 120,
	WorkloadLogStream: 220,
}

// Result collects everything a figure needs from one run.
type Result struct {
	Name      string
	Scheduler SchedulerKind
	Gamma     float64

	// Latency is the 1-minute average processing-time series (ms).
	Latency []metrics.Point
	// Failures is the per-minute failed-tuple series.
	Failures []metrics.Point
	// Nodes is the worker-nodes-in-use step series.
	Nodes []metrics.StepPoint

	// StableMean is the average processing time (ms) counting samples
	// after the system stabilized: from StabilizeAfter or, if later, from
	// settleMargin past the last re-assignment (the paper counts "after
	// the system stabilized at about 500s").
	StableMean float64
	// FinalNodes is the node count of the last assignment.
	FinalNodes int
	// P50 and P99 are whole-run latency percentiles in milliseconds.
	P50, P99 float64
	// Components copies the per-component execution counters.
	Components map[string]engine.ComponentStats
	// Placement summarizes the final assignment per node.
	Placement []PlacementRow

	RootsEmitted    int64
	Completions     int64
	LateCompletions int64
	Failed          int64
	Dropped         int64
	SinkWrites      int64
	Reassignments   []engine.ReassignEvent
	// SimEvents is the number of simulation events executed (cost probe).
	SimEvents uint64
}

// PlacementRow is one node's share of the final assignment.
type PlacementRow struct {
	Node      string
	Slots     int
	Executors int
}

// Validate fills defaults and checks the config.
func (c *Config) Validate() error {
	if c.Nodes == 0 {
		c.Nodes = 10
	}
	if c.Duration == 0 {
		c.Duration = 1000 * time.Second
	}
	if c.StabilizeAfter == 0 {
		c.StabilizeAfter = c.Duration / 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	switch c.Workload {
	case WorkloadThroughput, WorkloadWordCount, WorkloadLogStream, WorkloadChain:
	default:
		return fmt.Errorf("experiment: unknown workload %q", c.Workload)
	}
	switch c.Scheduler {
	case SchedStormDefault, SchedTStorm, SchedAnielloOnline, SchedAnielloOffline, SchedLoadBalanced:
	case SchedPinned:
		if c.PinAssignment == nil {
			return fmt.Errorf("experiment: pinned scheduler needs PinAssignment")
		}
	default:
		return fmt.Errorf("experiment: unknown scheduler %q", c.Scheduler)
	}
	if c.Scheduler == SchedTStorm && c.Gamma == 0 {
		c.Gamma = 1
	}
	return nil
}

// session is one assembled experiment: the cluster and runtime built, the
// workload submitted under its initial assignment and the scheduler stack
// under test attached — everything Run does before the clock starts.
type session struct {
	rt   *engine.Runtime
	app  *engine.App
	sink *docstore.Store
	// db is the load database the monitors feed (nil for schedulers that
	// never reschedule at runtime).
	db *loaddb.DB
	// stop releases the workload's external feeders.
	stop func()
}

// Run executes one experiment.
func Run(cfg Config) (*Result, error) {
	s, err := start(&cfg)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	if err := s.rt.RunFor(cfg.Duration); err != nil {
		return nil, err
	}
	return s.result(cfg), nil
}

// start validates cfg (filling its defaults) and assembles the session.
func start(cfg *Config) (*session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The paper's testbed: IBM blades with two 2.0 GHz dual-core Xeons
	// (4 cores × 2000 MHz) and 4 slots per node.
	cl, err := cluster.Uniform(cfg.Nodes, 4, 2000, 4)
	if err != nil {
		return nil, err
	}

	ecfg := engine.DefaultConfig()
	if cfg.Scheduler == SchedTStorm {
		ecfg = engine.TStormConfig()
	}
	switch cfg.SmoothOverride {
	case 1:
		ecfg.SmoothReassign = true
	case -1:
		ecfg.SmoothReassign = false
	}
	ecfg.Seed = cfg.Seed
	ecfg.Trace = cfg.Trace
	if cfg.Batching {
		ecfg.BatchFlush = time.Millisecond
		ecfg.BatchMaxTuples = 16
	}
	rt, err := engine.NewRuntime(ecfg, cl)
	if err != nil {
		return nil, err
	}

	app, sink, cleanup, err := buildWorkload(rt.Sim(), *cfg)
	if err != nil {
		return nil, err
	}
	s := &session{rt: rt, app: app, sink: sink, stop: cleanup}

	initial, err := initialAssignment(*cfg, app, cl)
	if err == nil {
		err = rt.Submit(app, initial)
	}
	if err != nil {
		cleanup()
		return nil, err
	}

	// The T-Storm architecture (and the Aniello online baseline, which
	// also reschedules at runtime) needs monitors and a generator.
	var algo scheduler.Algorithm
	gcfg := core.DefaultGeneratorConfig()
	switch cfg.Scheduler {
	case SchedTStorm:
		algo = core.NewTrafficAware(cfg.Gamma)
	case SchedAnielloOnline:
		algo = scheduler.AnielloOnline{}
		gcfg.OverloadThreshold = 1 // no overload trigger in these baselines
	case SchedLoadBalanced:
		algo = scheduler.LoadBalanced{}
		gcfg.OverloadThreshold = 1
	default:
		return s, nil
	}
	if cfg.GenerationPeriod > 0 {
		gcfg.GenerationPeriod = cfg.GenerationPeriod
	}
	if err := s.reschedule(gcfg, algo); err != nil {
		cleanup()
		return nil, err
	}
	return s, nil
}

// reschedule attaches the runtime-rescheduling stack of §IV: load monitors
// feeding a fresh load database, a generator running algo over it, and the
// custom scheduler that applies what the generator publishes.
func (s *session) reschedule(gcfg core.GeneratorConfig, algo scheduler.Algorithm) error {
	s.db = loaddb.New(0.5)
	monitor.Start(s.rt, s.db, monitor.DefaultPeriod)
	if _, err := core.StartGenerator(s.rt, s.db, gcfg, algo); err != nil {
		return err
	}
	core.StartCustomScheduler(s.rt, core.DefaultFetchPeriod)
	return nil
}

// result collects the finished run's series and counters.
func (s *session) result(cfg Config) *Result {
	rt, app := s.rt, s.app
	tm := rt.Metrics(app.Topology.Name())
	res := &Result{
		Name:            cfg.Name,
		Scheduler:       cfg.Scheduler,
		Gamma:           cfg.Gamma,
		Latency:         tm.Latency.Points(),
		Failures:        tm.Failures.Points(),
		Nodes:           tm.NodesInUse.Steps(),
		P50:             tm.LatencyHist.Quantile(0.5),
		P99:             tm.LatencyHist.Quantile(0.99),
		FinalNodes:      int(tm.NodesInUse.Last()),
		RootsEmitted:    tm.RootsEmitted,
		Completions:     tm.Completions,
		LateCompletions: tm.LateCompletions,
		Failed:          tm.Failed,
		Dropped:         tm.Dropped,
		Reassignments:   tm.Reassignments,
		SimEvents:       rt.Sim().EventsFired(),
	}
	res.Components = make(map[string]engine.ComponentStats, len(tm.Components))
	for name, cs := range tm.Components {
		res.Components[name] = *cs
	}
	if a, ok := rt.CurrentAssignment(app.Topology.Name()); ok {
		perNode := map[string]*PlacementRow{}
		slotSeen := map[cluster.SlotID]bool{}
		for _, slot := range a.Executors {
			row := perNode[string(slot.Node)]
			if row == nil {
				row = &PlacementRow{Node: string(slot.Node)}
				perNode[string(slot.Node)] = row
			}
			row.Executors++
			if !slotSeen[slot] {
				slotSeen[slot] = true
				row.Slots++
			}
		}
		for _, row := range perNode {
			res.Placement = append(res.Placement, *row)
		}
		sort.Slice(res.Placement, func(i, j int) bool { return res.Placement[i].Node < res.Placement[j].Node })
	}
	res.StableMean = settledMean(res, cfg.StabilizeAfter)
	if s.sink != nil {
		res.SinkWrites = s.sink.TotalWrites()
	}
	if math.IsNaN(res.StableMean) {
		res.StableMean = 0
	}
	return res
}

// buildWorkload constructs the app, its external substrates and feeders.
func buildWorkload(eng *sim.Engine, cfg Config) (*engine.App, *docstore.Store, func(), error) {
	nop := func() {}
	switch cfg.Workload {
	case WorkloadThroughput:
		tcfg := workloads.DefaultThroughputConfig()
		if cfg.Workers > 0 {
			tcfg.Workers = cfg.Workers
		}
		app, err := workloads.NewThroughputTest(tcfg)
		return app, nil, nop, err

	case WorkloadChain:
		ccfg := workloads.DefaultChainConfig()
		if cfg.ChainCfg != nil {
			ccfg = *cfg.ChainCfg
		}
		if cfg.Workers > 0 {
			ccfg.Workers = cfg.Workers
		}
		app, err := workloads.NewChain(ccfg)
		return app, nil, nop, err

	case WorkloadWordCount:
		queue := redisq.NewServer()
		sink := docstore.NewStore()
		wcfg := workloads.DefaultWordCountConfig()
		wcfg.Queue, wcfg.Sink = queue, sink
		if cfg.Workers > 0 {
			wcfg.Workers = cfg.Workers
		}
		app, err := workloads.NewWordCount(wcfg)
		if err != nil {
			return nil, nil, nop, err
		}
		rate := cfg.FeedRate
		if rate == 0 {
			rate = defaultFeedRates[WorkloadWordCount]
		}
		stop := workloads.StartCorpusFeeder(eng, queue, wcfg.QueueKey, rate)
		return app, sink, stop, nil

	case WorkloadLogStream:
		queue := redisq.NewServer()
		sink := docstore.NewStore()
		lcfg := workloads.DefaultLogStreamConfig()
		lcfg.Queue, lcfg.Sink = queue, sink
		if cfg.Workers > 0 {
			lcfg.Workers = cfg.Workers
		}
		app, err := workloads.NewLogStream(lcfg)
		if err != nil {
			return nil, nil, nop, err
		}
		rate := cfg.FeedRate
		if rate == 0 {
			rate = defaultFeedRates[WorkloadLogStream]
		}
		stop := workloads.StartLogFeeder(eng, queue, lcfg.QueueKey, cfg.Seed, rate)
		return app, sink, stop, nil
	}
	return nil, nil, nop, fmt.Errorf("experiment: unknown workload %q", cfg.Workload)
}

// initialAssignment computes the placement applied at submission.
func initialAssignment(cfg Config, app *engine.App, cl *cluster.Cluster) (*cluster.Assignment, error) {
	in := &scheduler.Input{Topologies: []*topology.Topology{app.Topology}, Cluster: cl}
	switch cfg.Scheduler {
	case SchedPinned:
		return cfg.PinAssignment(app.Topology, cl), nil
	case SchedTStorm, SchedLoadBalanced:
		return scheduler.TStormInitial{}.Schedule(in)
	case SchedAnielloOffline:
		return scheduler.AnielloOffline{}.Schedule(in)
	default:
		return scheduler.RoundRobin{}.Schedule(in)
	}
}
