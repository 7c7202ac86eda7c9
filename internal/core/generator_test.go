package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/decision"
	"tstorm/internal/engine"
	"tstorm/internal/loaddb"
	"tstorm/internal/monitor"
	"tstorm/internal/scheduler"
	"tstorm/internal/sim"
	"tstorm/internal/topology"
	"tstorm/internal/trace"
	"tstorm/internal/tuple"
)

// intSpout emits sequential ints forever at the configured interval.
type intSpout struct{ seq int }

func (s *intSpout) Open(*engine.Context) {}
func (s *intSpout) NextTuple(em engine.SpoutEmitter) {
	em.EmitWithID("", tuple.Values{s.seq}, s.seq)
	s.seq++
}
func (s *intSpout) Ack(any)  {}
func (s *intSpout) Fail(any) {}

// passBolt forwards every tuple.
type passBolt struct{}

func (passBolt) Prepare(*engine.Context) {}
func (passBolt) Execute(in tuple.Tuple, em engine.Emitter) {
	em.Emit("", in.Values)
}

// sinkBolt consumes.
type sinkBolt struct{}

func (sinkBolt) Prepare(*engine.Context)             {}
func (sinkBolt) Execute(tuple.Tuple, engine.Emitter) {}

func testApp(t *testing.T) *engine.App {
	t.Helper()
	b := topology.NewBuilder("pipeline", 20)
	b.SetAckers(2)
	b.Spout("spout", 2).Output("default", "v")
	b.Bolt("mid", 4).Shuffle("spout").Output("default", "v")
	b.Bolt("sink", 4).Shuffle("mid")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &engine.App{
		Topology: top,
		Spouts:   map[string]func() engine.Spout{"spout": func() engine.Spout { return &intSpout{} }},
		Bolts: map[string]func() engine.Bolt{
			"mid":  func() engine.Bolt { return passBolt{} },
			"sink": func() engine.Bolt { return sinkBolt{} },
		},
		Costs: map[string]engine.CostFn{
			"spout": engine.ConstCost(engine.Cycles(100*time.Microsecond, 2000)),
			"mid":   engine.ConstCost(engine.Cycles(150*time.Microsecond, 2000)),
			"sink":  engine.ConstCost(engine.Cycles(150*time.Microsecond, 2000)),
		},
		SpoutInterval: map[string]time.Duration{"spout": 5 * time.Millisecond},
	}
}

// pipelineStack wires runtime + monitors + generator + custom scheduler,
// the full T-Storm architecture of Fig. 4.
func pipelineStack(t *testing.T, gamma float64) (*engine.Runtime, *Generator, *CustomScheduler, *engine.App) {
	t.Helper()
	cl, err := cluster.Uniform(10, 4, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := engine.NewRuntime(engine.TStormConfig(), cl)
	if err != nil {
		t.Fatal(err)
	}
	app := testApp(t)
	initial, err := scheduler.RoundRobin{}.Schedule(&scheduler.Input{
		Topologies: []*topology.Topology{app.Topology}, Cluster: cl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Submit(app, initial); err != nil {
		t.Fatal(err)
	}
	db := loaddb.New(0.5)
	monitor.Start(rt, db, 20*time.Second)
	gcfg := DefaultGeneratorConfig()
	gcfg.Period = 100 * time.Second // shortened for the test
	gen, err := StartGenerator(rt, db, gcfg, NewTrafficAware(gamma))
	if err != nil {
		t.Fatal(err)
	}
	cs := StartCustomScheduler(rt, DefaultFetchPeriod)
	return rt, gen, cs, app
}

// TestSimGeneratorFeedsDecisionHistory runs the simulated stack with a
// decision history attached: every generation must add a report with
// per-executor placements (and candidate options, since the tstorm
// algorithm runs), plus a traffic snapshot of what it decided on.
func TestSimGeneratorFeedsDecisionHistory(t *testing.T) {
	gen, hist, app := simDecisionHistory(t)
	if gen.Generations() == 0 {
		t.Fatal("generator never ran")
	}
	if got := hist.Rounds(); got != int64(gen.Generations()) {
		t.Fatalf("history rounds %d != generations %d", got, gen.Generations())
	}
	reports := hist.Reports()
	if len(reports) == 0 {
		t.Fatal("no reports retained")
	}
	ne := app.Topology.NumExecutors()
	for _, rep := range reports {
		if rep.Algorithm != "tstorm" || rep.Executors != ne {
			t.Fatalf("report header %q/%d, want tstorm/%d", rep.Algorithm, rep.Executors, ne)
		}
		if len(rep.Placements) != ne {
			t.Fatalf("round %d has %d placements, want %d", rep.Round, len(rep.Placements), ne)
		}
		for _, p := range rep.Placements {
			if len(p.Options) == 0 {
				t.Fatalf("round %d placement %v has no candidate options", rep.Round, p.Executor)
			}
		}
		// The incumbent placement existed on every round, so the predicted
		// before value is always derivable.
		if rep.PredictedBefore < 0 {
			t.Fatalf("round %d has no predicted-before traffic", rep.Round)
		}
	}
	if got := len(hist.TrafficHistory()); got == 0 || got > hist.Capacity() {
		t.Fatalf("traffic history length %d, want within (0, %d]", got, hist.Capacity())
	}
	// The first generation replaces round-robin with T-Storm's placement:
	// it must be applied, and its moves counted.
	if hist.Moves() == 0 {
		t.Fatal("no moves recorded despite rescheduling away from round-robin")
	}
}

// TestSimDecisionHistoryRepeats: two same-seed simulated runs record the
// same decision history byte for byte — rounds and traffic snapshots
// stamped at simulated instants — except for each round's Duration, the
// wall time its Schedule call took.
func TestSimDecisionHistoryRepeats(t *testing.T) {
	record := func() []byte {
		_, hist, _ := simDecisionHistory(t)
		reports := hist.Reports()
		for i := range reports {
			if want := simEpoch.Add(time.Duration(i+1) * 100 * time.Second); !reports[i].Start.Equal(want) {
				t.Fatalf("round %d starts at %v, want the simulated %v", i+1, reports[i].Start, want)
			}
			reports[i].Duration = 0
		}
		out, err := json.Marshal(struct {
			Reports []decision.Report
			Traffic []decision.TrafficSnapshot
		}{reports, hist.TrafficHistory()})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if a, b := record(), record(); !bytes.Equal(a, b) {
		t.Fatalf("same-seed decision histories differ:\n%s\n%s", a, b)
	}
}

// simDecisionHistory runs the simulated stack for 400 s with a decision
// history: a generation every 100 s, the first from round-robin.
func simDecisionHistory(t *testing.T) (*Generator, *decision.History, *engine.App) {
	t.Helper()
	cl, err := cluster.Uniform(10, 4, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := engine.NewRuntime(engine.TStormConfig(), cl)
	if err != nil {
		t.Fatal(err)
	}
	app := testApp(t)
	initial, err := scheduler.RoundRobin{}.Schedule(&scheduler.Input{
		Topologies: []*topology.Topology{app.Topology}, Cluster: cl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Submit(app, initial); err != nil {
		t.Fatal(err)
	}
	db := loaddb.New(0.5)
	monitor.Start(rt, db, 20*time.Second)
	hist := decision.NewHistory(4)
	gcfg := DefaultGeneratorConfig()
	gcfg.Period = 100 * time.Second
	gcfg.History = hist
	gen, err := StartGenerator(rt, db, gcfg, NewTrafficAware(2))
	if err != nil {
		t.Fatal(err)
	}
	StartCustomScheduler(rt, DefaultFetchPeriod)
	if err := rt.RunFor(400 * time.Second); err != nil {
		t.Fatal(err)
	}
	return gen, hist, app
}

func TestEndToEndReschedulingImprovesLatencyAndConsolidates(t *testing.T) {
	rt, gen, _, _ := pipelineStack(t, 4)
	if err := rt.RunFor(400 * time.Second); err != nil {
		t.Fatal(err)
	}
	tm := rt.Metrics("pipeline")
	if gen.Generations() == 0 {
		t.Fatal("generator never ran")
	}
	if gen.Applied() == 0 {
		t.Fatal("generator never published a schedule")
	}
	// The custom scheduler applied the published schedule: the running
	// assignment is the one in the store, not the initial round-robin.
	data, _, err := rt.Coord().Get(SchedulePath("pipeline"))
	if err != nil {
		t.Fatal(err)
	}
	var published cluster.Assignment
	if err := json.Unmarshal(data, &published); err != nil {
		t.Fatal(err)
	}
	if cur, ok := rt.CurrentAssignment("pipeline"); !ok || !cur.Equal(&published) {
		t.Fatal("custom scheduler never applied a schedule")
	}
	// Consolidation: the initial round-robin spread over 10 nodes must
	// shrink substantially under γ=4.
	if got := tm.NodesInUse.Last(); got >= 10 {
		t.Fatalf("still using %v nodes after consolidation", got)
	}
	// The paper's headline: latency after stabilization beats the initial
	// (default-scheduler) phase.
	before := tm.Latency.MeanAfter(0) // includes the early phase
	after := tm.MeanLatencyAfter(sim.Time(250 * time.Second))
	if after >= before {
		t.Fatalf("latency did not improve: before-incl %.3fms, after %.3fms", before, after)
	}
	if tm.Completions == 0 {
		t.Fatal("nothing completed")
	}
}

func TestHotSwapAlgorithmAndGamma(t *testing.T) {
	rt, gen, _, _ := pipelineStack(t, 2)
	if err := rt.RunFor(150 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Swap γ on the fly.
	if err := gen.SetGamma(6); err != nil {
		t.Fatal(err)
	}
	// Register and swap to a different algorithm, then back by name.
	gen.Registry().Register(scheduler.AnielloOnline{})
	if err := gen.SwapTo("aniello-online"); err != nil {
		t.Fatal(err)
	}
	if gen.Algorithm().Name() != "aniello-online" {
		t.Fatal("hot swap did not take")
	}
	if err := gen.SetGamma(2); err == nil {
		t.Fatal("SetGamma accepted on an algorithm without γ")
	}
	if err := gen.SwapTo("tstorm"); err != nil {
		t.Fatal(err)
	}
	if gen.Algorithm().Name() != "tstorm" {
		t.Fatal("swap back failed")
	}
	if err := gen.SwapTo("ghost"); err == nil {
		t.Fatal("unknown algorithm swap accepted")
	}
	if err := gen.SetGamma(0.1); err == nil {
		t.Fatal("γ<1 accepted")
	}
	// The cluster kept running across the swaps.
	before := rt.Metrics("pipeline").Completions
	if err := rt.RunFor(100 * time.Second); err != nil {
		t.Fatal(err)
	}
	if rt.Metrics("pipeline").Completions <= before {
		t.Fatal("processing stalled across hot swap")
	}
}

func TestOverloadTriggersImmediateRescheduling(t *testing.T) {
	cl, err := cluster.Uniform(10, 4, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := engine.NewRuntime(engine.TStormConfig(), cl)
	if err != nil {
		t.Fatal(err)
	}
	app := testApp(t)
	// Overload: everything on one worker on one node (the user asked for
	// one worker, as in the paper's Figs. 9/10), with heavy per-tuple
	// cost: 2 spouts × 200/s × (0.1+0.15+0.15 ms at 2 GHz)... raised to
	// make one node insufficient.
	app.Costs = map[string]engine.CostFn{
		"spout": engine.ConstCost(engine.Cycles(1*time.Millisecond, 2000)),
		"mid":   engine.ConstCost(engine.Cycles(8*time.Millisecond, 2000)),
		"sink":  engine.ConstCost(engine.Cycles(8*time.Millisecond, 2000)),
	}
	initial := cluster.NewAssignment(0)
	for _, e := range app.Topology.Executors() {
		initial.Assign(e, cl.Slots()[0])
	}
	if err := rt.Submit(app, initial); err != nil {
		t.Fatal(err)
	}
	db := loaddb.New(0.5)
	monitor.Start(rt, db, 20*time.Second)
	gen, err := StartGenerator(rt, db, DefaultGeneratorConfig(), NewTrafficAware(2))
	if err != nil {
		t.Fatal(err)
	}
	StartCustomScheduler(rt, DefaultFetchPeriod)

	// Run shorter than the 300 s generation period: any rescheduling must
	// be overload-triggered.
	if err := rt.RunFor(250 * time.Second); err != nil {
		t.Fatal(err)
	}
	if gen.OverloadTriggers() == 0 {
		t.Fatal("overload never detected")
	}
	tm := rt.Metrics("pipeline")
	if got := tm.NodesInUse.Last(); got < 2 {
		t.Fatalf("overload handling did not allocate more nodes: %v", got)
	}
	// Latency after recovery is far below the overload peak.
	peak := tm.Latency.MeanAfter(sim.Time(60 * time.Second))
	late := tm.MeanLatencyAfter(sim.Time(200 * time.Second))
	if late >= peak {
		t.Fatalf("no recovery: peak-incl %.1fms vs late %.1fms", peak, late)
	}
}

func TestGeneratorSkipsWithoutData(t *testing.T) {
	cl, err := cluster.Uniform(2, 4, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := engine.NewRuntime(engine.TStormConfig(), cl)
	if err != nil {
		t.Fatal(err)
	}
	db := loaddb.New(0.5)
	gen, err := StartGenerator(rt, db, DefaultGeneratorConfig(), NewTrafficAware(2))
	if err != nil {
		t.Fatal(err)
	}
	if gen.Generate() {
		t.Fatal("generated without load data")
	}
	if gen.Generations() != 0 {
		t.Fatal("generation counted without data")
	}
}

func TestGeneratorConfigValidate(t *testing.T) {
	bad := DefaultGeneratorConfig()
	bad.Period = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero period accepted")
	}
	bad2 := DefaultGeneratorConfig()
	bad2.OverloadThreshold = 1.5
	if err := bad2.Validate(); err == nil {
		t.Fatal("threshold >1 accepted")
	}
	bad3 := DefaultGeneratorConfig()
	bad3.CapacityFraction = 0
	if err := bad3.Validate(); err == nil {
		t.Fatal("zero capacity fraction accepted")
	}
	if _, err := StartGenerator(nil, nil, bad3, nil); err == nil {
		t.Fatal("StartGenerator accepted bad config")
	}
}

// manualClock is a Clock the test drives by hand: it keeps every Every
// registration, fires one only when asked, and records events.
type manualClock struct {
	now    time.Time
	ticks  []*manualTick
	events []trace.Kind
}

type manualTick struct {
	period  time.Duration
	f       func()
	stopped int
}

func (c *manualClock) Every(period time.Duration, f func()) func() {
	tk := &manualTick{period: period, f: f}
	c.ticks = append(c.ticks, tk)
	return func() { tk.stopped++ }
}

func (c *manualClock) Now() time.Time                     { return c.now }
func (c *manualClock) Event(kind trace.Kind, _, _ string) { c.events = append(c.events, kind) }
func (c *manualClock) Observed() (int64, time.Time, bool) { return 0, time.Time{}, false }

// TestGeneratorOnManualClock: the generator registers its generation tick
// before its overload tick (the DES order at a shared instant), a tick runs
// exactly one round, the overload check exists only at a positive
// OverloadCheckPeriod and honours the cooldown on the clock's time, and
// Stop stops every tick and may be called again.
func TestGeneratorOnManualClock(t *testing.T) {
	cl, err := cluster.Uniform(4, 4, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, check := range []time.Duration{20 * time.Second, 0} {
		rt, err := engine.NewRuntime(engine.TStormConfig(), cl)
		if err != nil {
			t.Fatal(err)
		}
		app := testApp(t)
		// Everything on one slot, each executor at 1000 MHz: far past half
		// of the node's 8000 MHz.
		initial := cluster.NewAssignment(0)
		loads := map[topology.ExecutorID]float64{}
		for _, e := range app.Topology.Executors() {
			initial.Assign(e, cl.Slots()[0])
			loads[e] = 1000
		}
		if err := rt.Submit(app, initial); err != nil {
			t.Fatal(err)
		}
		db := loaddb.New(0.5)
		db.ApplyWindow(loads, nil)

		clk := &manualClock{}
		target, _ := SimBackend(rt)
		cfg := DefaultGeneratorConfig()
		cfg.OverloadCheckPeriod = check
		gen, err := StartGeneratorOn(target, clk, db, cfg, NewTrafficAware(2))
		if err != nil {
			t.Fatal(err)
		}
		want := []time.Duration{cfg.Period}
		if check > 0 {
			want = append(want, check)
		}
		if len(clk.ticks) != len(want) {
			t.Fatalf("check period %v: %d ticks registered, want %d", check, len(clk.ticks), len(want))
		}
		for i, tk := range clk.ticks {
			if tk.period != want[i] {
				t.Fatalf("check period %v: tick %d every %v, want %v", check, i, tk.period, want[i])
			}
		}

		clk.ticks[0].f()
		if gen.Generations() != 1 || gen.OverloadTriggers() != 0 {
			t.Fatalf("check period %v: one generation tick ran %d rounds, %d overload triggers",
				check, gen.Generations(), gen.OverloadTriggers())
		}
		if check > 0 {
			overload := clk.ticks[1].f
			overload() // the published schedule is not live yet: still overloaded
			clk.now = clk.now.Add(time.Second)
			overload() // inside the cooldown
			if gen.OverloadTriggers() != 1 || gen.Generations() != 2 {
				t.Fatalf("overload ticks: %d triggers, %d rounds; want 1 and 2", gen.OverloadTriggers(), gen.Generations())
			}
			clk.now = clk.now.Add(cfg.OverloadCooldown)
			overload()
			if gen.OverloadTriggers() != 2 {
				t.Fatalf("overload past the cooldown: %d triggers, want 2", gen.OverloadTriggers())
			}
			if !slices.Contains(clk.events, trace.OverloadDetected) {
				t.Fatalf("no overload event among %v", clk.events)
			}
		}

		gen.Stop()
		gen.Stop()
		for i, tk := range clk.ticks {
			if tk.stopped == 0 {
				t.Fatalf("check period %v: tick %d not stopped", check, i)
			}
		}
	}

	noCheck := DefaultGeneratorConfig()
	noCheck.OverloadCheckPeriod, noCheck.OverloadThreshold = 0, 0
	if err := noCheck.Validate(); err != nil {
		t.Fatalf("overload threshold validated with no overload check: %v", err)
	}
	for _, th := range []float64{-0.1, 1} {
		bad := DefaultGeneratorConfig()
		bad.ImprovementThreshold = th
		if err := bad.Validate(); err == nil {
			t.Fatalf("improvement threshold %v accepted", th)
		}
	}
}
