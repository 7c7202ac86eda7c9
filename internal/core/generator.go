package core

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/decision"
	"tstorm/internal/engine"
	"tstorm/internal/loaddb"
	"tstorm/internal/scheduler"
	"tstorm/internal/sim"
	"tstorm/internal/topology"
	"tstorm/internal/trace"
)

// SchedulePath is the coordination-store path the schedule generator
// publishes a topology's schedule under; the custom scheduler fetches it
// from there.
func SchedulePath(topo string) string { return "/schedules/" + topo }

// GeneratorConfig holds the schedule generator's timing and thresholds.
type GeneratorConfig struct {
	// Period is the regular scheduling interval (paper: 300 s).
	Period time.Duration
	// CapacityFraction sets C_k as a fraction of physical node capacity
	// (the paper's overload-prevention headroom).
	CapacityFraction float64
	// ImprovementThreshold is the minimum relative inter-node traffic gain
	// a new schedule must offer (when it does not reduce node count) to be
	// worth the re-assignment disruption (paper setup: 0.10). Forced
	// generations — Reschedule and overload — bypass it.
	ImprovementThreshold float64
	// History, when non-nil, receives a decision report and a
	// traffic-matrix snapshot for every generation (/debug/scheduler) and,
	// on a wall clock, the baseline /metrics reconciles predictions against.
	History *decision.History
	// OverloadCheckPeriod is how often node loads are checked for
	// overload (paper: every monitoring period, 20 s); 0 never checks.
	OverloadCheckPeriod time.Duration
	// OverloadThreshold is the node-load fraction of capacity above which
	// an immediate re-scheduling is triggered. Monitors measure useful
	// cycles only, while busy-spinning threads burn the rest of a
	// saturated node, so the practical saturation point sits well below
	// nominal capacity.
	OverloadThreshold float64
	// OverloadCooldown suppresses repeated overload-triggered generations
	// while a new schedule is still being applied and measured.
	OverloadCooldown time.Duration
}

// DefaultGeneratorConfig matches the paper's Table II settings.
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{
		Period:               300 * time.Second,
		CapacityFraction:     0.9,
		ImprovementThreshold: 0.10,
		OverloadCheckPeriod:  20 * time.Second,
		OverloadThreshold:    0.5,
		OverloadCooldown:     90 * time.Second,
	}
}

// Validate checks the configuration.
func (c GeneratorConfig) Validate() error {
	if c.Period <= 0 || c.OverloadCheckPeriod < 0 {
		return fmt.Errorf("core: non-positive generator period")
	}
	if c.CapacityFraction <= 0 || c.CapacityFraction > 1 {
		return fmt.Errorf("core: capacity fraction %v out of (0,1]", c.CapacityFraction)
	}
	if c.ImprovementThreshold < 0 || c.ImprovementThreshold >= 1 {
		return fmt.Errorf("core: improvement threshold %v out of [0,1)", c.ImprovementThreshold)
	}
	if c.OverloadCheckPeriod > 0 && (c.OverloadThreshold <= 0 || c.OverloadThreshold > 1) {
		return fmt.Errorf("core: overload threshold %v out of (0,1]", c.OverloadThreshold)
	}
	return nil
}

// Target is the engine surface the generator schedules against.
type Target interface {
	Topologies() []string
	App(name string) (*engine.App, bool)
	Cluster() *cluster.Cluster
	CurrentAssignment(name string) (*cluster.Assignment, bool)
	DownNodes() []cluster.NodeID
	// Apply puts next in place for the named topology: at once on the
	// wall-clock engines, through the custom scheduler on the DES.
	Apply(name string, next *cluster.Assignment) (int, error)
}

// Clock is the time base a generator runs on, simulated or wall.
type Clock interface {
	// Every calls f every period, the first time one period from now,
	// until the returned stop is called; stop is idempotent.
	Every(period time.Duration, f func()) (stop func())
	// Now is the clock's current instant: the wall time, or on the DES the
	// simulated time counted from the Unix epoch. It times the overload
	// cooldown and stamps the decision history, so a simulated history
	// repeats exactly.
	Now() time.Time
	// Event records a generator event on the backend's trace timeline, if
	// it keeps one.
	Event(kind trace.Kind, topo, detail string)
	// Observed reads the engine's inter-node transfer counter at a wall
	// time — the baseline History reconciles against; ok is false on the
	// DES.
	Observed() (interNodeSent int64, at time.Time, ok bool)
}

// Generator is the schedule generator daemon (§IV-A step 2): it
// periodically reads the load database, runs the current scheduling
// algorithm, and hands schedules that improve on the live assignment to
// its target. It is an independent component — swapping its algorithm or
// adjusting γ at runtime never touches the engine. It serves every
// backend; on a wall clock its ticks run on their own goroutines.
type Generator struct {
	target Target
	clock  Clock
	db     *loaddb.DB
	cfg    GeneratorConfig

	registry *scheduler.Registry
	algoMu   sync.Mutex
	algo     scheduler.Algorithm
	// roundMu runs one round at a time: a wall-clock tick may meet a
	// caller's Reschedule, and an algorithm's Gamma may change between rounds.
	roundMu sync.Mutex

	// Only the overload tick reads and writes these.
	lastOverloadGen time.Time
	hasOverloadGen  bool

	generations      atomic.Int64
	overloadTriggers atomic.Int64
	applied          atomic.Int64

	stops []func()
}

// StartGenerator starts a generator on the simulated runtime (SimBackend).
func StartGenerator(rt *engine.Runtime, db *loaddb.DB, cfg GeneratorConfig, algo scheduler.Algorithm) (*Generator, error) {
	return StartGeneratorOn(des{rt}, des{rt}, db, cfg, algo)
}

// SimBackend is the simulated runtime as a generator's target and clock.
// The target publishes schedules to the coordination store, where the
// custom scheduler fetches and applies them (§IV-A steps 2–3); the clock
// ticks on the simulation engine and records the generator's events on
// the runtime's trace recorder at simulated time.
func SimBackend(rt *engine.Runtime) (Target, Clock) { return des{rt}, des{rt} }

// StartGeneratorOn starts a generator over any target on any clock: a
// generation every cfg.Period, and an overload check every
// cfg.OverloadCheckPeriod when that is positive. algo is the initial
// algorithm; the registry is pre-populated with every built-in scheduler
// so any of them can be hot-swapped in by name, and algo is registered
// last so the running instance wins a name clash.
func StartGeneratorOn(t Target, c Clock, db *loaddb.DB, cfg GeneratorConfig, algo scheduler.Algorithm) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		target: t, clock: c, db: db, cfg: cfg,
		registry: scheduler.NewRegistry(),
		algo:     algo,
	}
	scheduler.RegisterBuiltins(g.registry)
	g.registry.Register(algo)
	g.stops = append(g.stops, c.Every(cfg.Period, func() { g.Generate() }))
	if cfg.OverloadCheckPeriod > 0 {
		g.stops = append(g.stops, c.Every(cfg.OverloadCheckPeriod, g.checkOverload))
	}
	return g, nil
}

// Stop halts the generator's periodic work; on a wall clock it returns
// once no tick is running. It is idempotent.
func (g *Generator) Stop() {
	for _, stop := range g.stops {
		stop()
	}
}

// Registry exposes the generator's algorithm registry so additional
// algorithms can be made available for hot-swapping.
func (g *Generator) Registry() *scheduler.Registry { return g.registry }

// Algorithm returns the active algorithm.
func (g *Generator) Algorithm() scheduler.Algorithm {
	g.algoMu.Lock()
	defer g.algoMu.Unlock()
	return g.algo
}

// SwapTo hot-swaps to a previously registered algorithm by name.
func (g *Generator) SwapTo(name string) error {
	a, ok := g.registry.Get(name)
	if !ok {
		return fmt.Errorf("core: algorithm %q not registered", name)
	}
	g.algoMu.Lock()
	g.algo = a
	g.algoMu.Unlock()
	g.clock.Event(trace.AlgorithmSwapped, "", name)
	return nil
}

// SetGamma adjusts the consolidation factor on the fly. It returns an
// error if the active algorithm has no γ parameter.
func (g *Generator) SetGamma(gamma float64) error {
	a := g.Algorithm()
	ta, ok := a.(*TrafficAware)
	if !ok {
		return fmt.Errorf("core: active algorithm %q has no consolidation factor", a.Name())
	}
	if gamma < 1 {
		return fmt.Errorf("core: γ=%v must be ≥ 1", gamma)
	}
	g.roundMu.Lock()
	ta.Gamma = gamma
	g.roundMu.Unlock()
	return nil
}

// Generations reports how many scheduling runs completed.
func (g *Generator) Generations() int { return int(g.generations.Load()) }

// OverloadTriggers reports how many generations were overload-triggered.
func (g *Generator) OverloadTriggers() int { return int(g.overloadTriggers.Load()) }

// Applied reports how many schedules the target accepted (each differed
// from the live assignment).
func (g *Generator) Applied() int { return int(g.applied.Load()) }

// Generate runs the active algorithm over the current load snapshot and
// applies any schedule that meaningfully improves on the live assignment
// — fewer nodes, or at least ImprovementThreshold less inter-node
// traffic. It is a no-op until monitors have stored load data.
func (g *Generator) Generate() bool { return g.generate(false) }

// Reschedule forces a generation that applies any differing schedule,
// bypassing the improvement threshold — the overload path, and what
// benchmarks use for a deterministic re-assignment instant.
func (g *Generator) Reschedule() bool { return g.generate(true) }

func (g *Generator) generate(force bool) bool {
	g.roundMu.Lock()
	defer g.roundMu.Unlock()
	if !g.db.HasData() {
		return false
	}
	names := g.target.Topologies()
	if len(names) == 0 {
		return false
	}
	tops := make([]*topology.Topology, len(names))
	for i, name := range names {
		app, _ := g.target.App(name)
		tops[i] = app.Topology
	}
	snap := g.db.Snapshot()
	in := scheduler.NewInput(tops, g.target.Cluster(), snap, g.cfg.CapacityFraction)
	// Fence failed nodes off the candidate set so the algorithm
	// reschedules the dead executors around them.
	for _, down := range g.target.DownNodes() {
		in.OccupyNode(down)
	}
	if g.cfg.History != nil {
		in.Probe = decision.NewBuilderAt(g.clock.Now())
	}
	// The incumbent assignment across all topologies, for the report's
	// predicted-before objective and move count.
	incumbent := g.placed(names)
	algo := g.Algorithm()
	global, err := algo.Schedule(in)
	if err != nil {
		return false
	}
	g.generations.Add(1)
	changed := false
	for i, name := range names {
		part := cluster.NewAssignment(0)
		for _, e := range tops[i].Executors() {
			if s, ok := global.Slot(e); ok {
				part.Assign(e, s)
			}
		}
		cur, ok := g.target.CurrentAssignment(name)
		if !ok || cur.Equal(part) {
			continue
		}
		if !force && !g.worthApplying(part, cur, snap) {
			continue
		}
		if _, err := g.target.Apply(name, part); err == nil {
			g.applied.Add(1)
			changed = true
			g.clock.Event(trace.ScheduleGenerated, name,
				fmt.Sprintf("algo=%s nodes=%d", algo.Name(), part.NumUsedNodes()))
		}
	}
	if h := g.cfg.History; h != nil && in.Probe != nil {
		rep := in.Probe.Report()
		if len(incumbent.Executors) > 0 {
			rep.PredictedBefore = decision.InterNodeRate(incumbent, snap)
		}
		rep.Moved = decision.MovedExecutors(global, incumbent)
		rep.Applied = changed
		h.Add(rep)
		h.RecordTraffic(g.clock.Now(), snap)
		if observed, at, ok := g.clock.Observed(); ok {
			// Anchor the reconciliation on whatever schedule is now live:
			// the generated one after an apply, the unchanged incumbent
			// otherwise.
			predicted := rep.PredictedAfter
			if !changed && rep.Moved != 0 && rep.PredictedBefore >= 0 {
				predicted = rep.PredictedBefore
			}
			h.SetBaseline(predicted, observed, at)
		}
	}
	return changed
}

// placed merges the named topologies' current assignments into one.
func (g *Generator) placed(names []string) *cluster.Assignment {
	all := cluster.NewAssignment(0)
	for _, name := range names {
		if a, ok := g.target.CurrentAssignment(name); ok {
			for e, s := range a.Executors {
				all.Assign(e, s)
			}
		}
	}
	return all
}

// worthApplying reports whether the re-assignment disruption is justified:
// the new schedule uses fewer worker nodes, or cuts inter-node traffic by
// at least the improvement threshold.
func (g *Generator) worthApplying(next, cur *cluster.Assignment, load *loaddb.Snapshot) bool {
	if next.NumUsedNodes() < cur.NumUsedNodes() {
		return true
	}
	return InterNodeTraffic(next, load) < InterNodeTraffic(cur, load)*(1-g.cfg.ImprovementThreshold)
}

// checkOverload inspects per-node workload estimates and triggers an
// immediate generation when any node exceeds the overload threshold —
// the paper's timely overload handling (Figs. 9 and 10).
func (g *Generator) checkOverload() {
	if !g.db.HasData() {
		return
	}
	now := g.clock.Now()
	if g.hasOverloadGen && now.Sub(g.lastOverloadGen) < g.cfg.OverloadCooldown {
		return
	}
	node, load := MaxNodeLoad(g.placed(g.target.Topologies()), g.db.ExecLoads())
	if node == "" {
		return
	}
	n, _ := g.target.Cluster().Node(node)
	if capacity := n.CapacityMHz(); capacity <= 0 || load < g.cfg.OverloadThreshold*capacity {
		return
	}
	g.overloadTriggers.Add(1)
	g.hasOverloadGen = true
	g.lastOverloadGen = now
	g.clock.Event(trace.OverloadDetected, "", fmt.Sprintf("node %s at %.0f MHz", node, load))
	g.generate(true)
}

// des is the simulated runtime as both target and clock. Its Apply leaves
// the engine alone: it publishes the schedule for the custom scheduler.
type des struct{ *engine.Runtime }

func (d des) Apply(name string, next *cluster.Assignment) (int, error) {
	data, err := json.Marshal(next)
	if err != nil {
		return 0, err
	}
	_, err = d.Coord().SetOrCreate(SchedulePath(name), data)
	return 0, err
}

func (d des) Every(period time.Duration, f func()) func() {
	return d.Sim().Every(period, period, f).Stop
}

// simEpoch is the wall instant a simulation's Time(0) reads as.
var simEpoch = time.Unix(0, 0).UTC()

func (d des) Now() time.Time { return simEpoch.Add(d.Sim().Now().Duration()) }

func (d des) Event(kind trace.Kind, topo, detail string) {
	if rec := d.Config().Trace; rec != nil {
		rec.Emit(trace.Event{At: d.Sim().Now(), Kind: kind, Topology: topo, Detail: detail})
	}
}

func (des) Observed() (int64, time.Time, bool) { return 0, time.Time{}, false }

// CustomScheduler is the thin Nimbus-side scheduler (§IV-A step 3): every
// fetch period (10 s) it reads the published schedule from the
// coordination store and, if it differs from the live assignment, applies
// it. It never computes schedules itself — that is the generator's job,
// which is what makes hot-swapping possible.
type CustomScheduler struct {
	rt     *engine.Runtime
	ticker *sim.Ticker
}

// DefaultFetchPeriod is the paper's schedule fetching period.
const DefaultFetchPeriod = 10 * time.Second

// StartCustomScheduler schedules periodic fetching on the runtime's
// simulation engine.
func StartCustomScheduler(rt *engine.Runtime, period time.Duration) *CustomScheduler {
	if period <= 0 {
		period = DefaultFetchPeriod
	}
	cs := &CustomScheduler{rt: rt}
	cs.ticker = rt.Sim().Every(period, period, cs.Fetch)
	return cs
}

// Stop halts fetching.
func (cs *CustomScheduler) Stop() {
	cs.ticker.Stop()
}

// Fetch reads each topology's published schedule and applies it when it
// differs from the live assignment.
func (cs *CustomScheduler) Fetch() {
	for _, name := range cs.rt.Topologies() {
		data, _, err := cs.rt.Coord().Get(SchedulePath(name))
		if err != nil {
			continue
		}
		var a cluster.Assignment
		if err := json.Unmarshal(data, &a); err != nil {
			continue
		}
		cur, ok := cs.rt.CurrentAssignment(name)
		if ok && cur.Equal(&a) {
			continue
		}
		_ = cs.rt.PublishAssignment(name, &a)
	}
}
