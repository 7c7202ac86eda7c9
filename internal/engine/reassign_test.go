package engine

import (
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/sim"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

// moveScenario runs a 2-node chain topology and moves the mid bolt to the
// other node at t=60s, returning the topology metrics.
func moveScenario(t *testing.T, smooth bool) *TopologyMetrics {
	t.Helper()
	cl := testCluster(t, 2)
	cfg := DefaultConfig()
	cfg.SmoothReassign = smooth
	rt := mustRuntime(t, cfg, cl)
	spout := &testSpout{}
	midRec, sinkRec := newRecorder(), newRecorder()
	app := chainApp(t, spout, midRec, sinkRec, 2, 2)
	// Keep the mid bolts busy (~75% utilization) so their queues hold
	// work whenever the abrupt restart kills them.
	app.Costs = map[string]CostFn{"mid": ConstCost(Cycles(3*time.Millisecond, 2000))}

	slotA := cluster.SlotID{Node: "node01", Port: cluster.BasePort}
	slotB := cluster.SlotID{Node: "node01", Port: cluster.BasePort + 1}
	slotC := cluster.SlotID{Node: "node02", Port: cluster.BasePort}

	initial := cluster.NewAssignment(0)
	for _, e := range app.Topology.Executors() {
		if e.Component == "mid" {
			initial.Assign(e, slotB)
		} else {
			initial.Assign(e, slotA)
		}
	}
	if err := rt.Submit(app, initial); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Move mid executors to node02.
	next := initial.Clone()
	next.ID = 0
	for _, e := range app.Topology.Executors() {
		if e.Component == "mid" {
			next.Assign(e, slotC)
		}
	}
	if err := rt.PublishAssignment("test", next); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(240 * time.Second); err != nil {
		t.Fatal(err)
	}
	return rt.Metrics("test")
}

func TestReassignmentStormModeDropsTuples(t *testing.T) {
	tm := moveScenario(t, false)
	if tm.Completions == 0 {
		t.Fatal("no completions at all")
	}
	// The abrupt worker restart must lose some tuples: drops or failures.
	if tm.Dropped == 0 && tm.Failed == 0 {
		t.Fatalf("expected losses from abrupt restart: %+v", tm)
	}
	// Processing continues after the move.
	if tm.Latency.MeanAfter(sim.Time(120*time.Second)) <= 0 {
		t.Fatal("no samples after re-assignment")
	}
}

func TestSmoothReassignmentLosesLessThanStorm(t *testing.T) {
	storm := moveScenario(t, false)
	smooth := moveScenario(t, true)
	stormLoss := storm.Failed + storm.Dropped
	smoothLoss := smooth.Failed + smooth.Dropped
	if smoothLoss > stormLoss {
		t.Fatalf("smooth re-assignment lost more (%d) than Storm (%d)", smoothLoss, stormLoss)
	}
	if smooth.Failed != 0 {
		t.Fatalf("smooth re-assignment failed %d tuples, want 0", smooth.Failed)
	}
	if smooth.Completions == 0 {
		t.Fatal("smooth run completed nothing")
	}
	// Both runs recorded the re-assignment.
	if len(smooth.Reassignments) != 2 || len(storm.Reassignments) != 2 {
		t.Fatalf("reassign events: smooth=%d storm=%d, want 2 each",
			len(smooth.Reassignments), len(storm.Reassignments))
	}
}

func TestScaleToEmptySlotRemovesWorker(t *testing.T) {
	// Moving everything off a slot leaves the node idle; the topology
	// keeps processing on the remaining node.
	cl := testCluster(t, 2)
	cfg := TStormConfig()
	rt := mustRuntime(t, cfg, cl)
	spout := &testSpout{}
	app := chainApp(t, spout, newRecorder(), newRecorder(), 1, 1)

	slots := []cluster.SlotID{
		{Node: "node01", Port: cluster.BasePort},
		{Node: "node02", Port: cluster.BasePort},
	}
	initial := spreadRR(app.Topology, slots)
	if err := rt.Submit(app, initial); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	consolidated := packAll(app.Topology, cl)
	if err := rt.PublishAssignment("test", consolidated); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	tm := rt.Metrics("test")
	if got := tm.NodesInUse.Last(); got != 1 {
		t.Fatalf("NodesInUse = %v, want 1", got)
	}
	before := tm.Completions
	if err := rt.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if tm.Completions <= before {
		t.Fatal("processing stalled after consolidation")
	}
	// node02 must have no live workers left.
	ns := rt.nodes["node02"]
	if ns.activeWorkers != 0 {
		t.Fatalf("node02 still has %d workers", ns.activeWorkers)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, float64) {
		cl := testCluster(t, 3)
		cfg := TStormConfig()
		cfg.Seed = 99
		rt := mustRuntime(t, cfg, cl)
		spout := &testSpout{}
		app := chainApp(t, spout, newRecorder(), newRecorder(), 3, 2)
		var slots []cluster.SlotID
		for _, n := range cl.Nodes() {
			slots = append(slots, cluster.SlotID{Node: n.ID, Port: cluster.BasePort})
		}
		if err := rt.Submit(app, spreadRR(app.Topology, slots)); err != nil {
			t.Fatal(err)
		}
		if err := rt.RunFor(90 * time.Second); err != nil {
			t.Fatal(err)
		}
		tm := rt.Metrics("test")
		return tm.Completions, tm.Latency.MeanAfter(0)
	}
	c1, l1 := run()
	c2, l2 := run()
	if c1 != c2 || l1 != l2 {
		t.Fatalf("same seed diverged: (%d, %v) vs (%d, %v)", c1, l1, c2, l2)
	}
	if c1 == 0 {
		t.Fatal("nothing completed")
	}
}

func TestDrainLoadSamplesAndTraffic(t *testing.T) {
	cl := testCluster(t, 2)
	rt := mustRuntime(t, DefaultConfig(), cl)
	spout := &testSpout{}
	app := chainApp(t, spout, newRecorder(), newRecorder(), 1, 1)
	var slots []cluster.SlotID
	for _, n := range cl.Nodes() {
		slots = append(slots, cluster.SlotID{Node: n.ID, Port: cluster.BasePort})
	}
	if err := rt.Submit(app, spreadRR(app.Topology, slots)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	samples := rt.DrainLoadSamples()
	if len(samples) != app.Topology.NumExecutors() {
		t.Fatalf("got %d samples, want %d", len(samples), app.Topology.NumExecutors())
	}
	busy := 0
	for _, s := range samples {
		if s.Cycles > 0 {
			busy++
		}
		if s.Node == "" {
			t.Fatalf("sample %v has no node", s.Exec)
		}
		if got, ok := rt.DenseIndex(s.Exec); !ok || got != s.Dense {
			t.Fatalf("dense index mismatch for %v", s.Exec)
		}
		if rt.ExecutorByDense(s.Dense) != s.Exec {
			t.Fatalf("ExecutorByDense mismatch for %v", s.Exec)
		}
	}
	if busy < 3 {
		t.Fatalf("only %d executors consumed CPU", busy)
	}
	// A second immediate drain is all zeros.
	for _, s := range rt.DrainLoadSamples() {
		if s.Cycles != 0 {
			t.Fatalf("drain did not reset: %v has %v cycles", s.Exec, s.Cycles)
		}
	}
	traffic := rt.DrainTraffic()
	if len(traffic) == 0 {
		t.Fatal("no traffic recorded")
	}
	spoutDense, _ := rt.DenseIndex(topology.ExecutorID{Topology: "test", Component: "spout", Index: 0})
	midDense, _ := rt.DenseIndex(topology.ExecutorID{Topology: "test", Component: "mid", Index: 0})
	found := false
	for p, n := range traffic {
		if p.From == spoutDense && p.To == midDense && n > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("spout→mid traffic not recorded")
	}
	if len(rt.DrainTraffic()) != 0 {
		t.Fatal("traffic drain did not reset")
	}
}

func TestNodeCapacityAndAccessors(t *testing.T) {
	cl := testCluster(t, 2)
	rt := mustRuntime(t, DefaultConfig(), cl)
	if got := rt.NodeCapacityMHz("node01"); got != 8000 {
		t.Fatalf("capacity = %v, want 8000", got)
	}
	if got := rt.NodeCapacityMHz("ghost"); got != 0 {
		t.Fatalf("ghost capacity = %v, want 0", got)
	}
	spout := &testSpout{limit: 1}
	app := chainApp(t, spout, newRecorder(), newRecorder(), 1, 1)
	if err := rt.Submit(app, packAll(app.Topology, cl)); err != nil {
		t.Fatal(err)
	}
	if got := rt.Topologies(); len(got) != 1 || got[0] != "test" {
		t.Fatalf("Topologies = %v", got)
	}
	if _, ok := rt.App("test"); !ok {
		t.Fatal("App not found")
	}
	if a, ok := rt.CurrentAssignment("test"); !ok || len(a.Executors) != app.Topology.NumExecutors() {
		t.Fatalf("CurrentAssignment wrong: ok=%v", ok)
	}
	if _, ok := rt.CurrentAssignment("ghost"); ok {
		t.Fatal("ghost assignment found")
	}
	if rt.NumExecutors() != app.Topology.NumExecutors() {
		t.Fatal("NumExecutors mismatch")
	}
	if rt.Cluster() != cl {
		t.Fatal("Cluster accessor wrong")
	}
	if rt.Config().MessageTimeout != 30*time.Second {
		t.Fatal("Config accessor wrong")
	}
}

func TestSlotExclusivityAcrossTopologies(t *testing.T) {
	cl := testCluster(t, 1)
	rt := mustRuntime(t, DefaultConfig(), cl)
	mkApp := func(name string) *App {
		b := topology.NewBuilder(name, 1)
		b.Spout("s", 1).Output("default", "v")
		b.Bolt("b", 1).Shuffle("s")
		top, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return &App{
			Topology: top,
			Spouts:   map[string]func() Spout{"s": func() Spout { return &testSpout{limit: 1} }},
			Bolts:    map[string]func() Bolt{"b": func() Bolt { return &recordBolt{rec: newRecorder()} }},
		}
	}
	a1 := mkApp("one")
	if err := rt.Submit(a1, packAll(a1.Topology, cl)); err != nil {
		t.Fatal(err)
	}
	a2 := mkApp("two")
	if err := rt.Submit(a2, packAll(a2.Topology, cl)); err == nil {
		t.Fatal("two topologies allowed on one slot")
	}
	// A different slot works.
	other := cluster.NewAssignment(0)
	for _, e := range a2.Topology.Executors() {
		other.Assign(e, cluster.SlotID{Node: "node01", Port: cluster.BasePort + 1})
	}
	if err := rt.Submit(a2, other); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.MessageTimeout = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero timeout accepted")
	}
	bad2 := DefaultConfig()
	bad2.AckerCost = -1
	if err := bad2.Validate(); err == nil {
		t.Fatal("negative cost accepted")
	}
	bad3 := DefaultConfig()
	bad3.Cost.BandwidthBps = 0
	if err := bad3.Validate(); err == nil {
		t.Fatal("bad cost model accepted")
	}
	if !TStormConfig().SmoothReassign {
		t.Fatal("TStormConfig not smooth")
	}
}

func TestCyclesHelpers(t *testing.T) {
	// 1 ms at 2000 MHz = 2e6 cycles.
	if got := Cycles(time.Millisecond, 2000); got != 2e6 {
		t.Fatalf("Cycles = %v, want 2e6", got)
	}
	c := ConstCost(42)
	if c(tuple.Tuple{}) != 42 {
		t.Fatal("ConstCost wrong")
	}
	p := PerByteCost(10, 2)
	if p(tuple.Tuple{Size: 5}) != 20 {
		t.Fatalf("PerByteCost = %v, want 20", p(tuple.Tuple{Size: 5}))
	}
}

// directForwardBolt records its input, forwards it and also sends it
// straight to sink task 0.
type directForwardBolt struct{ rec *recorder }

func (b *directForwardBolt) Prepare(*Context) {}
func (b *directForwardBolt) Execute(in tuple.Tuple, em Emitter) {
	b.rec.byTask[0] = append(b.rec.byTask[0], in.Values[0].(int))
	em.Emit("", in.Values)
	em.EmitDirect("tap", 0, "", in.Values)
}

// A worker that is draining after a smooth re-assignment is no longer its
// slot's current worker, so KillTopology leaves it to its shutdown delay:
// it keeps executing — and emitting, by both routes — for a topology that
// is already gone.
func TestKillTopologyWhileOldWorkerDrains(t *testing.T) {
	cl := testCluster(t, 2)
	rt := mustRuntime(t, TStormConfig(), cl)
	b := topology.NewBuilder("test", 4)
	b.SetAckers(1)
	b.Spout("spout", 1).Output("default", "v")
	b.Bolt("mid", 1).Shuffle("spout").Output("default", "v")
	b.Bolt("sink", 1).Shuffle("mid")
	b.Bolt("tap", 1).Direct("mid")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	midRec := newRecorder()
	app := &App{
		Topology: top,
		Spouts:   map[string]func() Spout{"spout": func() Spout { return &testSpout{} }},
		Bolts: map[string]func() Bolt{
			"mid":  func() Bolt { return &directForwardBolt{rec: midRec} },
			"sink": func() Bolt { return &recordBolt{rec: newRecorder()} },
			"tap":  func() Bolt { return &recordBolt{rec: newRecorder()} },
		},
		SpoutInterval: map[string]time.Duration{"spout": 5 * time.Millisecond},
		// Slower than the spout, so mid's queue is never empty.
		Costs: map[string]CostFn{"mid": ConstCost(Cycles(8*time.Millisecond, 2000))},
	}
	slotA := cluster.SlotID{Node: "node01", Port: cluster.BasePort}
	slotB := cluster.SlotID{Node: "node01", Port: cluster.BasePort + 1}
	slotC := cluster.SlotID{Node: "node02", Port: cluster.BasePort}
	mid := topology.ExecutorID{Topology: "test", Component: "mid", Index: 0}
	initial := cluster.NewAssignment(0)
	for _, e := range top.Executors() {
		initial.Assign(e, slotA)
	}
	initial.Assign(mid, slotB)
	if err := rt.Submit(app, initial); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	next := initial.Clone()
	next.ID = 0
	next.Assign(mid, slotC)
	if err := rt.PublishAssignment("test", next); err != nil {
		t.Fatal(err)
	}
	// node01's supervisor syncs at 21 s and puts mid's old worker into its
	// 20-second drain.
	if err := rt.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := rt.KillTopology("test"); err != nil {
		t.Fatal(err)
	}
	before := midRec.total()
	if err := rt.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if midRec.total() == before {
		t.Fatal("the draining worker executed nothing after the kill: the scenario is not exercised")
	}
}

// A killed topology's name can be submitted again: the new incarnation gets
// fresh dense indexes and fresh metrics, and runs.
func TestResubmitAfterKill(t *testing.T) {
	cl := testCluster(t, 1)
	rt := mustRuntime(t, DefaultConfig(), cl)
	submit := func() {
		t.Helper()
		app := chainApp(t, &testSpout{}, newRecorder(), newRecorder(), 2, 1)
		if err := rt.Submit(app, packAll(app.Topology, cl)); err != nil {
			t.Fatal(err)
		}
		if err := rt.RunFor(20 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	submit()
	first := rt.Metrics("test")
	n := rt.NumExecutors()
	if first.Completions == 0 {
		t.Fatal("first incarnation completed nothing")
	}
	if err := rt.KillTopology("test"); err != nil {
		t.Fatal(err)
	}
	submit()
	second := rt.Metrics("test")
	if second == first || second.Completions == 0 {
		t.Fatalf("second incarnation: same metrics %v, completions %d", second == first, second.Completions)
	}
	if rt.NumExecutors() != 2*n {
		t.Fatalf("%d executors registered after resubmission, want %d", rt.NumExecutors(), 2*n)
	}
}
