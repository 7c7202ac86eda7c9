// Package tstorm is a Go reproduction of "T-Storm: Traffic-aware Online
// Scheduling in Storm" (Xu, Chen, Tang, Su — IEEE ICDCS 2014): a complete
// Storm-like stream-processing engine running on a deterministic
// discrete-event simulation of a cluster, plus the T-Storm scheduling
// architecture on top of it — per-node load monitors, an EWMA load
// database, a hot-swappable schedule generator running the paper's
// traffic-aware Algorithm 1 with its consolidation factor γ, a thin custom
// scheduler, and the smooth re-assignment machinery of §IV-D.
//
// Two execution backends share that scheduling stack: the deterministic
// simulation (Runtime) and a live wall-clock engine that runs the same
// Apps on real goroutines with bounded-channel queues (LiveEngine), where
// node boundaries are emulated by serialization and copy cost so
// traffic-aware placement measurably raises real throughput. The live
// engine additionally provides Storm's at-least-once reliability — acker
// executors, spout timeout wheels, replays — plus fault injection
// (CrashWorker, FailNode) and supervised restart.
//
// This root package is the public facade: it re-exports the main types
// and provides Wire, which assembles the whole T-Storm stack over either
// backend in one call. The examples/ directory shows complete programs;
// cmd/tstorm-bench regenerates every figure of the paper's evaluation.
//
// A minimal session:
//
//	b := tstorm.NewTopology("demo", 4)
//	b.SetAckers(1)
//	b.Spout("src", 1).Output("default", "v")
//	b.Bolt("work", 2).Shuffle("src")
//	top, _ := b.Build()
//
//	cl, _ := tstorm.NewCluster(3, 4, 2000, 4)
//	rt, _ := tstorm.NewRuntime(tstorm.TStormConfig(), cl)
//	initial, _ := tstorm.InitialSchedule(top, cl)
//	_ = rt.Submit(&tstorm.App{ /* code + costs */ }, initial)
//	stack, _ := tstorm.Wire(rt, tstorm.WithGamma(1.5))
//	_ = rt.RunFor(10 * time.Minute)
//	_ = stack.Stop()
package tstorm

import (
	"fmt"
	"sync"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/core"
	"tstorm/internal/decision"
	"tstorm/internal/dist"
	"tstorm/internal/engine"
	"tstorm/internal/health"
	"tstorm/internal/live"
	"tstorm/internal/loaddb"
	"tstorm/internal/monitor"
	"tstorm/internal/predictor"
	"tstorm/internal/scheduler"
	"tstorm/internal/telemetry"
	"tstorm/internal/topology"
	"tstorm/internal/trace"
	"tstorm/internal/tsdb"
	"tstorm/internal/tuple"
)

// Topology model.
type (
	// Topology is a validated Storm application graph.
	Topology = topology.Topology
	// TopologyBuilder assembles a Topology.
	TopologyBuilder = topology.Builder
	// ExecutorID identifies one executor of one topology.
	ExecutorID = topology.ExecutorID
	// Tuple is the unit of data flowing through a topology.
	Tuple = tuple.Tuple
	// Values is a tuple's payload.
	Values = tuple.Values
)

// Physical cluster model.
type (
	// Cluster is a fixed set of worker nodes.
	Cluster = cluster.Cluster
	// Node is one worker node.
	Node = cluster.Node
	// SlotID identifies a worker slot (node, port).
	SlotID = cluster.SlotID
	// Assignment maps executors to slots.
	Assignment = cluster.Assignment
)

// Execution engine.
type (
	// Runtime is the simulated Storm cluster.
	Runtime = engine.Runtime
	// Config holds the engine's timing and cost parameters.
	Config = engine.Config
	// App bundles a topology with its component code and costs.
	App = engine.App
	// Spout produces the topology's input stream.
	Spout = engine.Spout
	// Bolt consumes and processes tuples.
	Bolt = engine.Bolt
	// Emitter is handed to bolts to emit tuples.
	Emitter = engine.Emitter
	// SpoutEmitter is handed to spouts to emit root tuples.
	SpoutEmitter = engine.SpoutEmitter
	// Context gives user code its identity.
	Context = engine.Context
	// CostFn models a component's per-tuple CPU cost.
	CostFn = engine.CostFn
	// TopologyMetrics collects a topology's measurements.
	TopologyMetrics = engine.TopologyMetrics
)

// Scheduling.
type (
	// Algorithm computes executor-to-slot assignments.
	Algorithm = scheduler.Algorithm
	// SchedulerInput carries what algorithms may use.
	SchedulerInput = scheduler.Input
	// TrafficAware is the paper's Algorithm 1.
	TrafficAware = core.TrafficAware
	// Generator is the schedule generator daemon; one runs on every
	// backend.
	Generator = core.Generator
	// CustomScheduler fetches and applies generated schedules.
	CustomScheduler = core.CustomScheduler
	// LoadDB is the load-information database.
	LoadDB = loaddb.DB
	// MonitorFleet drives the per-node load monitors.
	MonitorFleet = monitor.Fleet
)

// Live (wall-clock) runtime: the same App and scheduling brain on real
// goroutines instead of the discrete-event simulation.
type (
	// LiveEngine executes topologies on one goroutine per executor with
	// bounded-channel queues; worker groups map to cluster slots. Routing
	// reads an immutable copy-on-write snapshot (republished atomically by
	// Submit/Apply), so emitters never take the engine lock on the
	// per-tuple hot path.
	LiveEngine = live.Engine
	// LiveConfig holds the live engine's knobs.
	LiveConfig = live.Config
	// LiveMonitor samples executor CPU and traffic over wall-clock windows.
	LiveMonitor = live.Monitor
	// LiveTotals is a snapshot of the live engine's counters.
	LiveTotals = live.Totals
	// LiveSupervisor restarts crashed live executors with backoff.
	LiveSupervisor = live.Supervisor
)

// Distributed (multi-process) runtime: real worker OS processes on
// loopback TCP behind the same facade, driven by the same scheduling
// stack.
type (
	// DistEngine is the distributed driver: it spawns one worker process
	// per cluster slot (re-executing the current binary), supervises them
	// with exponential-backoff respawn, and coordinates §IV-D migration
	// across process boundaries. It implements the same scheduling surface
	// as LiveEngine, so Wire drives both identically.
	DistEngine = dist.Engine
	// DistConfig holds the distributed driver's knobs.
	DistConfig = dist.Config
	// DistWorkerStatus is one worker process's liveness row.
	DistWorkerStatus = dist.WorkerStatus
	// DistRestartRecord documents one supervised worker-process respawn.
	DistRestartRecord = dist.RestartRecord
)

// NewDistEngine builds a distributed driver (workers spawn at Start).
// The binary calling this MUST call RunDistWorkerIfChild first thing in
// main(), because worker processes are the same binary re-executed.
func NewDistEngine(cfg DistConfig) (*DistEngine, error) { return dist.NewEngine(cfg) }

// RunDistWorkerIfChild turns the process into a distributed worker when
// it was spawned by a DistEngine (and never returns in that case); a
// no-op otherwise. Call it at the top of main() — and in TestMain of any
// test binary that builds a DistEngine.
func RunDistWorkerIfChild() { dist.RunWorkerIfChild() }

// DefaultLiveConfig returns the live engine's default configuration.
func DefaultLiveConfig() LiveConfig { return live.DefaultConfig() }

// NewLiveEngine builds a wall-clock execution engine over the cluster.
func NewLiveEngine(cfg LiveConfig, cl *Cluster) (*LiveEngine, error) {
	return live.NewEngine(cfg, cl)
}

// Observability.
type (
	// TraceRecorder captures structured runtime events.
	TraceRecorder = trace.Recorder
	// TraceEvent is one recorded runtime event.
	TraceEvent = trace.Event
	// TelemetryServer serves /metrics (Prometheus text format),
	// /debug/placement, /debug/trace, /debug/scheduler, and
	// /debug/traffic for a live engine.
	TelemetryServer = telemetry.Server
	// TelemetryConfig selects what a TelemetryServer exposes.
	TelemetryConfig = telemetry.Config
	// Estimator is a pluggable load estimator (§IV-B extension point).
	Estimator = predictor.Estimator
	// DecisionHistory retains scheduler decision reports and traffic
	// snapshots (see WithDecisionHistory).
	DecisionHistory = decision.History
	// DecisionReport explains one scheduling round: every placement with
	// its candidate slots, gains, and rejection constraints, plus the
	// predicted inter-node traffic before and after.
	DecisionReport = decision.Report
	// TimeSeriesDB retains fixed-capacity ring-buffer time series sampled
	// from the runtime's counters (see WithHealth).
	TimeSeriesDB = tsdb.DB
	// TimeSeriesSampler drives the periodic collection into a TimeSeriesDB.
	TimeSeriesSampler = tsdb.Sampler
	// HealthEngine evaluates declarative SLO rules against retained series
	// with EWMA baselines and hysteresis (see WithHealth).
	HealthEngine = health.Engine
	// HealthStatus is the health engine's full verdict snapshot, as served
	// on /debug/health.
	HealthStatus = health.Status
)

// NewTelemetryServer builds a telemetry server over a live engine and
// optional monitor/trace sources (not yet listening; call Start).
func NewTelemetryServer(cfg TelemetryConfig) (*TelemetryServer, error) {
	return telemetry.NewServer(cfg)
}

// NewTraceRecorder returns a bounded event recorder; attach it via
// Config.Trace before building the runtime.
func NewTraceRecorder(capacity int) *TraceRecorder { return trace.NewRecorder(capacity) }

// NewTopology starts a topology builder with the given name and requested
// worker count.
func NewTopology(name string, numWorkers int) *TopologyBuilder {
	return topology.NewBuilder(name, numWorkers)
}

// BasePort is the first worker-slot port on every node (Storm's default
// supervisor configuration).
const BasePort = cluster.BasePort

// NewCluster builds a cluster of n identical nodes (cores × coreMHz CPU,
// slots worker slots each).
func NewCluster(n, cores int, coreMHz float64, slots int) (*Cluster, error) {
	return cluster.Uniform(n, cores, coreMHz, slots)
}

// NewRuntime builds a simulated Storm runtime over the cluster.
func NewRuntime(cfg Config, cl *Cluster) (*Runtime, error) {
	return engine.NewRuntime(cfg, cl)
}

// DefaultConfig reproduces stock Storm 0.8 behaviour.
func DefaultConfig() Config { return engine.DefaultConfig() }

// TStormConfig enables T-Storm's smooth re-assignment (§IV-D).
func TStormConfig() Config { return engine.TStormConfig() }

// NewTrafficAware returns Algorithm 1 with consolidation factor γ.
func NewTrafficAware(gamma float64) *TrafficAware { return core.NewTrafficAware(gamma) }

// Cycles converts a per-tuple processing duration on a core of the given
// clock rate into CPU cycles, for use with ConstCost.
func Cycles(d time.Duration, atMHz float64) float64 { return engine.Cycles(d, atMHz) }

// ConstCost returns a CostFn charging a fixed cycle count per tuple.
func ConstCost(cycles float64) CostFn { return engine.ConstCost(cycles) }

// InitialSchedule computes T-Storm's modified initial placement for a
// topology: min(N_u, nodes) workers, one per node.
func InitialSchedule(top *Topology, cl *Cluster) (*Assignment, error) {
	return scheduler.TStormInitial{}.Schedule(&scheduler.Input{
		Topologies: []*Topology{top}, Cluster: cl,
	})
}

// DefaultSchedule computes Storm's default round-robin placement.
func DefaultSchedule(top *Topology, cl *Cluster) (*Assignment, error) {
	return scheduler.RoundRobin{}.Schedule(&scheduler.Input{
		Topologies: []*Topology{top}, Cluster: cl,
	})
}

// Backend is the execution-engine surface Wire schedules over. All three
// backends satisfy it: the simulated *Runtime, the wall-clock
// *LiveEngine, and the multi-process *DistEngine.
type Backend interface {
	// Topologies lists the submitted topology names.
	Topologies() []string
	// Cluster returns the physical cluster the backend executes on.
	Cluster() *Cluster
}

// Compile-time proof that all engines are Backends.
var (
	_ Backend = (*Runtime)(nil)
	_ Backend = (*LiveEngine)(nil)
	_ Backend = (*DistEngine)(nil)
)

// Paper defaults (Table II): consolidation factor γ, the load-monitoring
// period, and the schedule-generation period.
const (
	DefaultGamma          = 1.5
	DefaultMonitorPeriod  = 20 * time.Second
	DefaultGeneratePeriod = 300 * time.Second
)

// wireConfig collects Wire's options; zero fields mean Table II defaults.
type wireConfig struct {
	gamma           float64
	algorithm       string // scheduling algorithm name; "" = Algorithm 1
	monitorPeriod   time.Duration
	generatePeriod  time.Duration
	ackTimeout      time.Duration // live only
	maxPending      int           // live only; -1 = unset
	decisionHistory int           // reports retained; 0 = disabled
	pprof           bool          // mount /debug/pprof on StartTelemetry
	health          bool          // wall-clock backends; sampler + SLO engine
	sampleEvery     time.Duration // health sampling cadence; 0 = 1 s
	err             error         // first invalid option
}

// Option configures Wire.
type Option func(*wireConfig)

// optErr records the first invalid option; Wire reports it.
func (c *wireConfig) optErr(err error) {
	if c.err == nil {
		c.err = err
	}
}

// WithGamma sets Algorithm 1's consolidation factor γ (default 1.5).
func WithGamma(gamma float64) Option {
	return func(c *wireConfig) {
		if gamma <= 0 {
			c.optErr(fmt.Errorf("tstorm: WithGamma(%v): gamma must be positive", gamma))
			return
		}
		c.gamma = gamma
	}
}

// WithAlgorithm selects the scheduling algorithm the generator runs, by
// registry name: "tstorm" (Algorithm 1, the default), the baselines
// ("default", "tstorm-initial", "aniello-offline", "aniello-online",
// "load-balanced"), or the multi-resource contenders ("rstorm",
// "hetero"). Every built-in stays registered in Stack's generator
// regardless, so the choice here is just the starting point — SwapTo can
// hot-swap to any other name mid-run. Unknown names are rejected by
// Wire.
func WithAlgorithm(name string) Option {
	return func(c *wireConfig) {
		if name == "" {
			c.optErr(fmt.Errorf("tstorm: WithAlgorithm(%q): empty algorithm name", name))
			return
		}
		c.algorithm = name
	}
}

// resolveAlgorithm turns the configured name into the initial Algorithm
// instance: Algorithm 1 with the configured γ by default, or any
// registered built-in by name.
func (c *wireConfig) resolveAlgorithm() (Algorithm, error) {
	if c.algorithm == "" || c.algorithm == "tstorm" {
		return core.NewTrafficAware(c.gamma), nil
	}
	r := scheduler.NewRegistry()
	scheduler.RegisterBuiltins(r)
	a, ok := r.Get(c.algorithm)
	if !ok {
		return nil, fmt.Errorf("tstorm: WithAlgorithm(%q): unknown algorithm (have \"tstorm\" and %v)", c.algorithm, r.Names())
	}
	return a, nil
}

// WithMonitorPeriod sets the load-monitoring period (default 20 s, the
// paper's Table II).
func WithMonitorPeriod(d time.Duration) Option {
	return func(c *wireConfig) {
		if d <= 0 {
			c.optErr(fmt.Errorf("tstorm: WithMonitorPeriod(%v): period must be positive", d))
			return
		}
		c.monitorPeriod = d
	}
}

// WithGeneratePeriod sets the schedule-generation period (default 300 s,
// the paper's Table II).
func WithGeneratePeriod(d time.Duration) Option {
	return func(c *wireConfig) {
		if d <= 0 {
			c.optErr(fmt.Errorf("tstorm: WithGeneratePeriod(%v): period must be positive", d))
			return
		}
		c.generatePeriod = d
	}
}

// WithDecisionHistory makes the generator record a DecisionReport and a
// traffic-matrix snapshot for each scheduling round, retaining the last n
// of each on Stack.Decisions. StartTelemetry then serves them on
// /debug/scheduler and /debug/traffic and exports the tstorm_scheduler_*
// metric families, including the predicted-vs-observed inter-node traffic
// reconciliation gauge. Works on every backend (the reconciliation gauge
// needs a wall-clock engine's counters).
func WithDecisionHistory(n int) Option {
	return func(c *wireConfig) {
		if n <= 0 {
			c.optErr(fmt.Errorf("tstorm: WithDecisionHistory(%d): report count must be positive", n))
			return
		}
		c.decisionHistory = n
	}
}

// WithPprof mounts Go's net/http/pprof profiling handlers under
// /debug/pprof/ on the server StartTelemetry returns. Off by default:
// profile endpoints can pause the process (CPU profile, blocking trace),
// so they stay opt-in while the rest of the telemetry surface is
// read-only.
func WithPprof() Option {
	return func(c *wireConfig) { c.pprof = true }
}

// WithHealth enables the in-process observability layer on wall-clock
// backends: a background sampler (default 1 s cadence; see
// WithSampleEvery) retains the engine's counters, queue depths, and
// windowed completion p99 as fixed-capacity ring-buffer time series on
// Stack.TSDB, and an SLO health engine on Stack.Health judges them with
// the standard rule set — throughput floor against an EWMA baseline,
// completion-p99 ceiling, predicted-vs-observed ratio band, queue
// saturation, worker heartbeat age, ack-timeout storms, and batch-pool
// miss rate — with ok→degraded→critical hysteresis. Transitions are
// emitted as trace events, StartTelemetry serves /debug/timeseries and
// /debug/health plus the tstorm_health_* families, and tstorm-top
// renders the same data as a terminal dashboard. Wire rejects it on the
// simulated Runtime, which has no wall clock to sample against.
func WithHealth() Option {
	return func(c *wireConfig) { c.health = true }
}

// WithSampleEvery sets the health sampler's cadence (default 1 s).
// Only meaningful together with WithHealth; Wire rejects it alone.
func WithSampleEvery(d time.Duration) Option {
	return func(c *wireConfig) {
		if d <= 0 {
			c.optErr(fmt.Errorf("tstorm: WithSampleEvery(%v): cadence must be positive", d))
			return
		}
		c.sampleEvery = d
	}
}

// WithAckTimeout sets the live engine's spout ack timeout — how long an
// anchored root may stay un-acked before its spout fails it for replay.
// Live backend only; Wire rejects it on the simulated Runtime, whose
// timeout is Config.MessageTimeout at construction.
func WithAckTimeout(d time.Duration) Option {
	return func(c *wireConfig) {
		if d <= 0 {
			c.optErr(fmt.Errorf("tstorm: WithAckTimeout(%v): timeout must be positive", d))
			return
		}
		c.ackTimeout = d
	}
}

// WithMaxPending caps every live spout's outstanding un-acked roots
// (engine-wide default; App.MaxPending overrides per spout, 0 lifts the
// cap). Live backend only; Wire rejects it on the simulated Runtime,
// which reads App.MaxPending directly.
func WithMaxPending(n int) Option {
	return func(c *wireConfig) {
		if n < 0 {
			c.optErr(fmt.Errorf("tstorm: WithMaxPending(%d): cap must be >= 0", n))
			return
		}
		c.maxPending = n
	}
}

// Stack is the wired T-Storm scheduling architecture of Fig. 4, over any
// backend: load monitors sampling into an α=0.5 EWMA load DB and a
// schedule generator running Algorithm 1. Besides DB and Generator,
// exactly one backend's component set is non-nil; the shared lifecycle
// (Stop, Forget, StartTelemetry) works through the Stack itself.
type Stack struct {
	// DB is the load-information database every backend feeds.
	DB *LoadDB
	// Generator is the schedule generator, the same on every backend.
	Generator *Generator

	// Simulated backend (nil otherwise).
	Monitors  *MonitorFleet
	Scheduler *CustomScheduler

	// Live backend (nil otherwise).
	Engine  *LiveEngine
	Monitor *LiveMonitor
	// Supervisor restarts crashed live executors (CrashWorker/FailNode)
	// with exponential backoff.
	Supervisor *LiveSupervisor

	// Distributed backend (nil otherwise). Monitoring runs inside the
	// worker processes and flows into DB over the control plane, and
	// process supervision is built into the engine, so the dist Stack has
	// no Monitor or Supervisor components.
	Dist *DistEngine

	// Decisions retains the generator's per-round DecisionReports and
	// traffic snapshots when the stack was wired WithDecisionHistory
	// (nil otherwise). Every backend feeds it.
	Decisions *DecisionHistory

	// TSDB retains the sampled time series and Health judges them when
	// the stack was wired WithHealth (both nil otherwise). StartTelemetry
	// serves them on /debug/timeseries and /debug/health.
	TSDB   *TimeSeriesDB
	Health *HealthEngine

	// sampler drives the periodic collection feeding TSDB and Health;
	// Stop halts it with the rest of the stack.
	sampler *TimeSeriesSampler

	// pprof records WithPprof for StartTelemetry.
	pprof bool

	stopOnce sync.Once
}

// Sampler returns the health sampler when wired WithHealth (nil
// otherwise). Tests drive Sampler().Tick directly for deterministic
// collection instead of waiting out the cadence.
func (s *Stack) Sampler() *TimeSeriesSampler { return s.sampler }

// Live reports whether the stack drives the in-process live backend.
func (s *Stack) Live() bool { return s.Engine != nil }

// Distributed reports whether the stack drives the multi-process backend.
func (s *Stack) Distributed() bool { return s.Dist != nil }

// Wire assembles the full T-Storm stack on a backend: load monitors
// sampling every 20 s into an α=0.5 load DB and a schedule generator
// running Algorithm 1 with γ=1.5 every 300 s (all Table II defaults,
// overridable via options). On the simulated Runtime it also starts the
// custom scheduler fetching every 10 s; on the live engine it also starts
// the supervisor that restarts crashed workers. Submit topologies (and
// Start the live engine) first.
func Wire(backend Backend, opts ...Option) (*Stack, error) {
	cfg := wireConfig{
		gamma:          DefaultGamma,
		monitorPeriod:  DefaultMonitorPeriod,
		generatePeriod: DefaultGeneratePeriod,
		maxPending:     -1,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}

	algo, err := cfg.resolveAlgorithm()
	if err != nil {
		return nil, err
	}
	if cfg.sampleEvery != 0 && !cfg.health {
		return nil, fmt.Errorf("tstorm: WithSampleEvery only tunes WithHealth; wire them together")
	}

	db := loaddb.New(0.5)
	st := &Stack{DB: db, pprof: cfg.pprof}
	if cfg.decisionHistory > 0 {
		st.Decisions = decision.NewHistory(cfg.decisionHistory)
	}
	hist := st.Decisions
	gcfg := core.DefaultGeneratorConfig()
	gcfg.Period, gcfg.History = cfg.generatePeriod, hist
	// Each backend yields the generator's target and clock.
	var target core.Target
	var clock core.Clock
	switch be := backend.(type) {
	case *Runtime:
		if cfg.ackTimeout != 0 || cfg.maxPending >= 0 {
			return nil, fmt.Errorf("tstorm: WithAckTimeout/WithMaxPending apply to the live backend only (the simulated Runtime reads Config.MessageTimeout and App.MaxPending)")
		}
		if cfg.health {
			return nil, fmt.Errorf("tstorm: WithHealth applies to the wall-clock backends only (the simulated Runtime has no wall clock to sample against)")
		}
		st.Monitors = monitor.Start(be, db, cfg.monitorPeriod)
		target, clock = core.SimBackend(be)

	case *LiveEngine:
		if cfg.ackTimeout > 0 {
			be.SetAckTimeout(cfg.ackTimeout)
		}
		if cfg.maxPending >= 0 {
			be.SetMaxPending(cfg.maxPending)
		}
		st.Engine = be
		st.Monitor = live.StartMonitor(be, db, cfg.monitorPeriod)
		st.Supervisor = live.StartSupervisor(be, 0)
		if cfg.health {
			src := health.Sources{
				Totals:       be.Totals,
				PendingRoots: be.PendingRoots,
				QueueSaturation: func() (float64, int) {
					return be.QueueSaturation(0.8)
				},
				CompletionLatency: be.CompletionLatencySnapshot,
			}
			if hist != nil {
				src.Ratio = func(now time.Time) (float64, bool) {
					return hist.Reconcile(be.Totals().InterNodeSent, now)
				}
			}
			startHealth(&cfg, st, src, be.Trace())
		}
		target, clock = be, live.WallClock(be)
		gcfg.OverloadCheckPeriod = 0 // the wall-clock backends reschedule on the period only

	case *DistEngine:
		if cfg.ackTimeout != 0 || cfg.maxPending >= 0 {
			return nil, fmt.Errorf("tstorm: WithAckTimeout/WithMaxPending do not apply to the distributed backend (set DistConfig.AckTimeout before Start, and App.MaxPending per spout)")
		}
		// Monitoring is worker-side: each process samples its executors and
		// ships windows over the control plane into this load DB.
		be.SetLoadSink(db)
		be.SetMonitorPeriod(cfg.monitorPeriod)
		st.Dist = be
		if cfg.health {
			// CachedTotals reads the heartbeat-refreshed aggregates — the
			// sampler must never block on per-worker status RPCs.
			src := health.Sources{
				Totals: be.CachedTotals,
				PendingRoots: func() int64 {
					var sum int64
					for _, w := range be.Workers() {
						sum += w.Pending
					}
					return sum
				},
				Workers: func(now time.Time) (alive, total int, oldestBeat time.Duration, ok bool) {
					ws := be.Workers()
					if len(ws) == 0 {
						return 0, 0, 0, false
					}
					for i := range ws {
						if !ws[i].Alive {
							continue
						}
						alive++
						if !ws[i].LastBeat.IsZero() {
							if age := now.Sub(ws[i].LastBeat); age > oldestBeat {
								oldestBeat = age
							}
						}
					}
					return alive, len(ws), oldestBeat, true
				},
			}
			if hist != nil {
				src.Ratio = func(now time.Time) (float64, bool) {
					return hist.Reconcile(be.CachedTotals().InterNodeSent, now)
				}
			}
			startHealth(&cfg, st, src, be.Trace())
		}
		target, clock = be, live.WallClock(be)
		gcfg.OverloadCheckPeriod = 0

	default:
		return nil, fmt.Errorf("tstorm: unsupported backend %T (want *tstorm.Runtime, *tstorm.LiveEngine or *tstorm.DistEngine)", backend)
	}

	gen, err := core.StartGeneratorOn(target, clock, db, gcfg, algo)
	if err != nil {
		st.Stop()
		return nil, err
	}
	// Algorithm 1 stays hot-swappable by name even when the stack was
	// wired onto a different initial algorithm.
	if _, ok := gen.Registry().Get("tstorm"); !ok {
		gen.Registry().Register(core.NewTrafficAware(cfg.gamma))
	}
	st.Generator = gen
	if rt, ok := backend.(*Runtime); ok {
		// Started after the generator, so on a tick the two share the
		// generator publishes before the custom scheduler fetches.
		st.Scheduler = core.StartCustomScheduler(rt, core.DefaultFetchPeriod)
	}
	return st, nil
}

// startHealth assembles the WithHealth machinery onto a wired stack: a
// ring-buffer tsdb fed by the backend taps, the standard SLO rule set
// judging it, and a background sampler driving one collect+evaluate pass
// per cadence tick. Transitions land on rec (the backend's trace
// recorder; nil keeps them in /debug/health only).
func startHealth(cfg *wireConfig, st *Stack, src health.Sources, rec *trace.Recorder) {
	tdb := tsdb.NewDB(0)
	col := health.NewCollector(tdb, src)
	eng := health.New(health.StandardRules(tdb, health.RuleOptions{}), rec)
	every := cfg.sampleEvery
	if every <= 0 {
		every = tsdb.DefaultSampleEvery
	}
	smp := tsdb.NewSampler(every, func(now time.Time) {
		col.Collect(now)
		eng.Evaluate(now)
	})
	smp.Start()
	st.TSDB, st.Health, st.sampler = tdb, eng, smp
}

// StartTelemetry serves the stack's observability endpoints — Prometheus
// text-format /metrics, /debug/placement, /debug/trace (when the engine
// was built with LiveConfig.Trace), /debug/scheduler + /debug/traffic
// (when wired WithDecisionHistory), /debug/tuples (when the engine was
// built with LiveConfig.TraceSampling or DistConfig.TraceSampling),
// /debug/timeseries + /debug/health (when wired WithHealth), and
// /debug/pprof/ (when wired WithPprof) — on addr (e.g. ":9090", or
// "127.0.0.1:0" for an ephemeral port; read the bound address back with
// Addr). Close the returned server when done. On the distributed backend
// the counters are fleet aggregates and /debug/workers lists the worker
// processes. Wall-clock backends only: the simulated Runtime has no
// wall-clock to scrape against.
func (s *Stack) StartTelemetry(addr string) (*TelemetryServer, error) {
	var cfg telemetry.Config
	switch {
	case s.Live():
		cfg = telemetry.Config{
			Engine:  s.Engine,
			Monitor: s.Monitor,
			Trace:   s.Engine.Trace(),
			History: s.Decisions,
			DB:      s.DB,
			Tuples:  s.Engine.TraceCollector(),
			Pprof:   s.pprof,
			TSDB:    s.TSDB,
			Health:  s.Health,
		}
	case s.Distributed():
		be := s.Dist
		cfg = telemetry.Config{
			Totals:    be.Totals,
			Placement: be.Placement,
			Workers: func() []telemetry.WorkerStatus {
				ws := be.Workers()
				out := make([]telemetry.WorkerStatus, len(ws))
				for i, w := range ws {
					out[i] = telemetry.WorkerStatus{
						Slot: w.Slot, PID: w.PID, Alive: w.Alive,
						Restarts: w.Restarts, DataAddr: w.DataAddr, Pending: w.Pending,
						DroppedTuples: w.DroppedTuples,
					}
				}
				return out
			},
			Trace:   be.Trace(),
			History: s.Decisions,
			DB:      s.DB,
			Tuples:  be.TraceCollector(),
			Pprof:   s.pprof,
			TSDB:    s.TSDB,
			Health:  s.Health,
		}
	default:
		return nil, fmt.Errorf("tstorm: StartTelemetry requires the live or distributed backend")
	}
	srv, err := telemetry.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(addr); err != nil {
		return nil, err
	}
	return srv, nil
}

// Forget drops a dead topology's measurements from the stack: the monitor
// prunes its flow memory and stops reporting the topology's executors,
// and the load database deletes its records — so later sampling rounds
// cannot resurrect the keys. Works on all backends; on the distributed
// backend the worker-side monitors prune themselves when the engine in
// their process drops the topology, so only the driver's database needs
// clearing here.
func (s *Stack) Forget(topo string) {
	switch {
	case s.Live():
		s.Monitor.Forget(topo)
	case s.Distributed():
		s.DB.Forget(topo)
	default:
		s.Monitors.Forget(topo)
	}
}

// Stop halts the stack's periodic work — monitors, generator, and the
// backend-specific daemons (custom scheduler or supervisor) — but not the
// engine itself. It is idempotent: only the first call stops anything,
// and every call returns nil.
func (s *Stack) Stop() error {
	s.stopOnce.Do(func() {
		if s.Monitors != nil {
			s.Monitors.Stop()
		}
		if s.Generator != nil {
			s.Generator.Stop()
		}
		if s.Scheduler != nil {
			s.Scheduler.Stop()
		}
		if s.Monitor != nil {
			s.Monitor.Stop()
		}
		if s.Supervisor != nil {
			s.Supervisor.Stop()
		}
		if s.sampler != nil {
			s.sampler.Stop()
		}
	})
	return nil
}
