package engine

import (
	"fmt"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/sim"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

// ---- test fixtures ----

// testSpout emits sequential integers, up to limit (0 = unlimited), one
// per NextTuple call, and replays failed message IDs.
type testSpout struct {
	limit   int
	seq     int
	replays []any
	acked   []any
	failed  []any
}

func (s *testSpout) Open(*Context) {}

func (s *testSpout) NextTuple(em SpoutEmitter) {
	if len(s.replays) > 0 {
		id := s.replays[0]
		s.replays = s.replays[1:]
		em.EmitWithID("", tuple.Values{id.(int)}, id)
		return
	}
	if s.limit > 0 && s.seq >= s.limit {
		return
	}
	id := s.seq
	s.seq++
	em.EmitWithID("", tuple.Values{id}, id)
}

func (s *testSpout) Ack(msgID any) { s.acked = append(s.acked, msgID) }
func (s *testSpout) Fail(msgID any) {
	s.failed = append(s.failed, msgID)
	s.replays = append(s.replays, msgID)
}

// recorder collects which task processed which values.
type recorder struct {
	byTask map[int][]int
}

func newRecorder() *recorder { return &recorder{byTask: make(map[int][]int)} }

func (r *recorder) total() int {
	n := 0
	for _, v := range r.byTask {
		n += len(v)
	}
	return n
}

// recordBolt forwards its input and records it.
type recordBolt struct {
	rec     *recorder
	idx     int
	forward bool
}

func (b *recordBolt) Prepare(ctx *Context) { b.idx = ctx.Index }

func (b *recordBolt) Execute(in tuple.Tuple, em Emitter) {
	if v, ok := in.Values[0].(int); ok {
		b.rec.byTask[b.idx] = append(b.rec.byTask[b.idx], v)
	}
	if b.forward {
		em.Emit("", in.Values)
	}
}

func testCluster(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.Uniform(nodes, 4, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// chainApp builds spout → mid → sink with acking.
func chainApp(t *testing.T, spout *testSpout, midRec, sinkRec *recorder, midPar, sinkPar int) *App {
	t.Helper()
	b := topology.NewBuilder("test", 4)
	b.SetAckers(1)
	b.Spout("spout", 1).Output("default", "v")
	b.Bolt("mid", midPar).Shuffle("spout").Output("default", "v")
	b.Bolt("sink", sinkPar).Shuffle("mid")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &App{
		Topology: top,
		Spouts:   map[string]func() Spout{"spout": func() Spout { return spout }},
		Bolts: map[string]func() Bolt{
			"mid":  func() Bolt { return &recordBolt{rec: midRec, forward: true} },
			"sink": func() Bolt { return &recordBolt{rec: sinkRec} },
		},
		SpoutInterval: map[string]time.Duration{"spout": 5 * time.Millisecond},
	}
}

// packAll places every executor of the topology on the first slot of the
// first node.
func packAll(top *topology.Topology, cl *cluster.Cluster) *cluster.Assignment {
	a := cluster.NewAssignment(0)
	slot := cl.Slots()[0]
	for _, e := range top.Executors() {
		a.Assign(e, slot)
	}
	return a
}

// spreadRR places executors round-robin, one per slot index over the given
// slots.
func spreadRR(top *topology.Topology, slots []cluster.SlotID) *cluster.Assignment {
	a := cluster.NewAssignment(0)
	for i, e := range top.Executors() {
		a.Assign(e, slots[i%len(slots)])
	}
	return a
}

func mustRuntime(t *testing.T, cfg Config, cl *cluster.Cluster) *Runtime {
	t.Helper()
	rt, err := NewRuntime(cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// ---- tests ----

func TestPipelineProcessesAndAcks(t *testing.T) {
	cl := testCluster(t, 1)
	rt := mustRuntime(t, DefaultConfig(), cl)
	spout := &testSpout{limit: 100}
	midRec, sinkRec := newRecorder(), newRecorder()
	app := chainApp(t, spout, midRec, sinkRec, 1, 1)
	if err := rt.Submit(app, packAll(app.Topology, cl)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	tm := rt.Metrics("test")
	if tm.RootsEmitted != 100 {
		t.Fatalf("RootsEmitted = %d, want 100", tm.RootsEmitted)
	}
	if tm.Completions != 100 || tm.Failed != 0 || tm.Dropped != 0 {
		t.Fatalf("completions=%d failed=%d dropped=%d", tm.Completions, tm.Failed, tm.Dropped)
	}
	if midRec.total() != 100 || sinkRec.total() != 100 {
		t.Fatalf("mid=%d sink=%d, want 100 each", midRec.total(), sinkRec.total())
	}
	if len(spout.acked) != 100 || len(spout.failed) != 0 {
		t.Fatalf("acked=%d failed=%d", len(spout.acked), len(spout.failed))
	}
	var samples int64
	for _, p := range tm.Latency.Points() {
		samples += p.Count
	}
	if samples != 100 {
		t.Fatalf("latency samples = %d", samples)
	}
	// Latency is small but positive on a single packed node.
	mean := tm.Latency.MeanAfter(0)
	if mean <= 0 || mean > 10 {
		t.Fatalf("mean latency = %vms, want (0, 10]", mean)
	}
}

func TestSubmitValidation(t *testing.T) {
	cl := testCluster(t, 1)
	rt := mustRuntime(t, DefaultConfig(), cl)
	spout := &testSpout{limit: 1}
	app := chainApp(t, spout, newRecorder(), newRecorder(), 1, 1)

	// Missing placement.
	bad := cluster.NewAssignment(0)
	if err := rt.Submit(app, bad); err == nil {
		t.Fatal("incomplete assignment accepted")
	}
	// Unknown node.
	bad2 := packAll(app.Topology, cl)
	for e := range bad2.Executors {
		bad2.Executors[e] = cluster.SlotID{Node: "ghost", Port: 6700}
		break
	}
	if err := rt.Submit(app, bad2); err == nil {
		t.Fatal("assignment to unknown node accepted")
	}
	// Good one.
	if err := rt.Submit(app, packAll(app.Topology, cl)); err != nil {
		t.Fatal(err)
	}
	// Duplicate submit.
	if err := rt.Submit(app, packAll(app.Topology, cl)); err == nil {
		t.Fatal("duplicate submit accepted")
	}
}

func TestAppValidate(t *testing.T) {
	b := topology.NewBuilder("t", 1)
	b.Spout("s", 1).Output("default", "v")
	b.Bolt("b", 1).Shuffle("s")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	app := &App{Topology: top}
	if err := app.Validate(); err == nil {
		t.Fatal("app without spout factory validated")
	}
	app.Spouts = map[string]func() Spout{"s": func() Spout { return &testSpout{} }}
	if err := app.Validate(); err == nil {
		t.Fatal("app without bolt factory validated")
	}
	app.Bolts = map[string]func() Bolt{"b": func() Bolt { return &recordBolt{rec: newRecorder()} }}
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	app.Bolts["ghost"] = app.Bolts["b"]
	if err := app.Validate(); err == nil {
		t.Fatal("dangling bolt factory validated")
	}
}

func TestFieldsGroupingRoutesByKey(t *testing.T) {
	cl := testCluster(t, 1)
	rt := mustRuntime(t, DefaultConfig(), cl)

	b := topology.NewBuilder("fg", 2)
	b.SetAckers(1)
	b.Spout("spout", 1).Output("default", "v")
	b.Bolt("sink", 4).Fields("spout", "v")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	spout := &testSpout{limit: 200}
	app := &App{
		Topology: top,
		Spouts:   map[string]func() Spout{"spout": func() Spout { return spout }},
		Bolts:    map[string]func() Bolt{"sink": func() Bolt { return &recordBolt{rec: rec} }},
	}
	// Make values repeat so each key appears multiple times.
	spout.limit = 40
	if err := rt.Submit(app, packAll(top, cl)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Re-run same key mapping: every occurrence of value v must be in
	// exactly one task's record. With one occurrence each, check instead
	// the hashing agreement:
	for task, vals := range rec.byTask {
		for _, v := range vals {
			want := tuple.HashKey(fmt.Sprintf("%d\x1f", v), 4)
			if task != want {
				t.Fatalf("value %d processed by task %d, fields-hash says %d", v, task, want)
			}
		}
	}
	if rec.total() != 40 {
		t.Fatalf("total = %d, want 40", rec.total())
	}
}

func TestAllGroupingBroadcasts(t *testing.T) {
	cl := testCluster(t, 1)
	rt := mustRuntime(t, DefaultConfig(), cl)
	b := topology.NewBuilder("ag", 2)
	b.SetAckers(1)
	b.Spout("spout", 1).Output("default", "v")
	b.Bolt("sink", 3).All("spout")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	spout := &testSpout{limit: 10}
	app := &App{
		Topology: top,
		Spouts:   map[string]func() Spout{"spout": func() Spout { return spout }},
		Bolts:    map[string]func() Bolt{"sink": func() Bolt { return &recordBolt{rec: rec} }},
	}
	if err := rt.Submit(app, packAll(top, cl)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if rec.total() != 30 {
		t.Fatalf("total = %d, want 10×3 broadcast", rec.total())
	}
	for task := 0; task < 3; task++ {
		if len(rec.byTask[task]) != 10 {
			t.Fatalf("task %d got %d tuples, want 10", task, len(rec.byTask[task]))
		}
	}
	if tm := rt.Metrics("ag"); tm.Completions != 10 {
		t.Fatalf("completions = %d, want 10 (broadcast must still ack)", tm.Completions)
	}
}

func TestGlobalGroupingUsesTaskZero(t *testing.T) {
	cl := testCluster(t, 1)
	rt := mustRuntime(t, DefaultConfig(), cl)
	b := topology.NewBuilder("gg", 2)
	b.SetAckers(1)
	b.Spout("spout", 1).Output("default", "v")
	b.Bolt("sink", 3).Global("spout")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	app := &App{
		Topology: top,
		Spouts:   map[string]func() Spout{"spout": func() Spout { return &testSpout{limit: 10} }},
		Bolts:    map[string]func() Bolt{"sink": func() Bolt { return &recordBolt{rec: rec} }},
	}
	if err := rt.Submit(app, packAll(top, cl)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(rec.byTask[0]) != 10 || rec.total() != 10 {
		t.Fatalf("byTask = %v, want all 10 on task 0", rec.byTask)
	}
}

// directSpout emits via EmitDirect to a chosen task.
type directSpout struct {
	sent int
}

func (s *directSpout) Open(*Context) {}
func (s *directSpout) NextTuple(em SpoutEmitter) {
	if s.sent >= 10 {
		return
	}
	em.EmitDirect("sink", 2, "", tuple.Values{s.sent})
	s.sent++
}
func (s *directSpout) Ack(any)  {}
func (s *directSpout) Fail(any) {}

func TestDirectGrouping(t *testing.T) {
	cl := testCluster(t, 1)
	rt := mustRuntime(t, DefaultConfig(), cl)
	b := topology.NewBuilder("dg", 2)
	b.Spout("spout", 1).Output("default", "v")
	b.Bolt("sink", 3).Direct("spout")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	app := &App{
		Topology: top,
		Spouts:   map[string]func() Spout{"spout": func() Spout { return &directSpout{} }},
		Bolts:    map[string]func() Bolt{"sink": func() Bolt { return &recordBolt{rec: rec} }},
	}
	if err := rt.Submit(app, packAll(top, cl)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(rec.byTask[2]) != 10 || rec.total() != 10 {
		t.Fatalf("byTask = %v, want all 10 on task 2", rec.byTask)
	}
}

func TestUnanchoredWithoutAckers(t *testing.T) {
	cl := testCluster(t, 1)
	rt := mustRuntime(t, DefaultConfig(), cl)
	b := topology.NewBuilder("ua", 2)
	b.Spout("spout", 1).Output("default", "v")
	b.Bolt("sink", 1).Shuffle("spout")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	spout := &testSpout{limit: 20}
	app := &App{
		Topology: top,
		Spouts:   map[string]func() Spout{"spout": func() Spout { return spout }},
		Bolts:    map[string]func() Bolt{"sink": func() Bolt { return &recordBolt{rec: rec} }},
	}
	if err := rt.Submit(app, packAll(top, cl)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if rec.total() != 20 {
		t.Fatalf("sink got %d, want 20", rec.total())
	}
	tm := rt.Metrics("ua")
	if tm.RootsEmitted != 0 || tm.Completions != 0 {
		t.Fatalf("acking happened without ackers: %+v", tm)
	}
	if len(spout.acked) != 0 {
		t.Fatal("spout acked without ackers")
	}
}

// slowBolt burns a lot of CPU per tuple.
type slowBolt struct{}

func (slowBolt) Prepare(*Context)             {}
func (slowBolt) Execute(tuple.Tuple, Emitter) {}

func TestTimeoutFailsAndReplays(t *testing.T) {
	cl := testCluster(t, 1)
	cfg := DefaultConfig()
	cfg.MessageTimeout = 2 * time.Second
	rt := mustRuntime(t, cfg, cl)
	b := topology.NewBuilder("to", 1)
	b.SetAckers(1)
	b.Spout("spout", 1).Output("default", "v")
	b.Bolt("sink", 1).Shuffle("spout")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	spout := &testSpout{limit: 50}
	app := &App{
		Topology: top,
		Spouts:   map[string]func() Spout{"spout": func() Spout { return spout }},
		Bolts:    map[string]func() Bolt{"sink": func() Bolt { return slowBolt{} }},
		// 500 ms of CPU per tuple at 2 GHz: service rate 2/s < arrival.
		Costs: map[string]CostFn{"sink": ConstCost(Cycles(500*time.Millisecond, 2000))},
	}
	if err := rt.Submit(app, packAll(top, cl)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	tm := rt.Metrics("to")
	if tm.Failed == 0 {
		t.Fatal("no failures despite overload")
	}
	if len(spout.failed) == 0 {
		t.Fatal("spout.Fail never called")
	}
	// Late completions are recorded with large latencies.
	if tm.LateCompletions == 0 {
		t.Fatal("no late completions observed")
	}
	mean := tm.Latency.MeanAfter(0)
	if mean < cfg.MessageTimeout.Seconds()*1e3/2 {
		t.Fatalf("mean latency %vms too small for overload", mean)
	}
}

func TestSpreadingIncreasesLatency(t *testing.T) {
	// The engine-level reproduction of Observation 1 (Fig. 2): the same
	// topology, packed on one worker vs spread over 5 nodes, must show
	// higher processing time when spread.
	run := func(spread bool) float64 {
		cl, err := cluster.Uniform(5, 4, 2000, 4)
		if err != nil {
			t.Fatal(err)
		}
		rt := mustRuntime(t, DefaultConfig(), cl)
		spout := &testSpout{}
		midRec, sinkRec := newRecorder(), newRecorder()
		app := chainApp(t, spout, midRec, sinkRec, 1, 1)
		app.Costs = map[string]CostFn{
			"spout": ConstCost(Cycles(100*time.Microsecond, 2000)),
			"mid":   ConstCost(Cycles(200*time.Microsecond, 2000)),
			"sink":  ConstCost(Cycles(200*time.Microsecond, 2000)),
		}
		var a *cluster.Assignment
		if spread {
			nodes := cl.Nodes()
			var slots []cluster.SlotID
			for _, n := range nodes {
				slots = append(slots, cluster.SlotID{Node: n.ID, Port: cluster.BasePort})
			}
			a = spreadRR(app.Topology, slots)
		} else {
			a = packAll(app.Topology, cl)
		}
		if err := rt.Submit(app, a); err != nil {
			t.Fatal(err)
		}
		if err := rt.RunFor(100 * time.Second); err != nil {
			t.Fatal(err)
		}
		tm := rt.Metrics("test")
		if tm.Completions == 0 {
			t.Fatal("no completions")
		}
		return tm.Latency.MeanAfter(sim.Time(30 * time.Second))
	}
	packed := run(false)
	spreadL := run(true)
	if spreadL <= packed {
		t.Fatalf("spread latency %.3fms not worse than packed %.3fms", spreadL, packed)
	}
}
