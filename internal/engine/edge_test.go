package engine

import (
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

// slowAckSpout emits as fast as allowed; used to verify MaxPending.
type slowAckSpout struct {
	emitted int
}

func (s *slowAckSpout) Open(*Context) {}
func (s *slowAckSpout) NextTuple(em SpoutEmitter) {
	em.EmitWithID("", tuple.Values{s.emitted}, s.emitted)
	s.emitted++
}
func (s *slowAckSpout) Ack(any)  {}
func (s *slowAckSpout) Fail(any) {}

func TestMaxPendingThrottlesSpout(t *testing.T) {
	cl := testCluster(t, 1)
	rt := mustRuntime(t, DefaultConfig(), cl)
	b := topology.NewBuilder("mp", 1)
	b.SetAckers(1)
	b.Spout("spout", 1).Output("default", "v")
	b.Bolt("sink", 1).Shuffle("spout")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	spout := &slowAckSpout{}
	app := &App{
		Topology: top,
		Spouts:   map[string]func() Spout{"spout": func() Spout { return spout }},
		Bolts:    map[string]func() Bolt{"sink": func() Bolt { return slowBolt{} }},
		// The sink takes 100 ms per tuple: without a pending cap the
		// backlog would grow without bound.
		Costs:      map[string]CostFn{"sink": ConstCost(Cycles(100*time.Millisecond, 2000))},
		MaxPending: map[string]int{"spout": 5},
	}
	if err := rt.Submit(app, packAll(top, cl)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	tm := rt.Metrics("mp")
	// Service rate is ~3/s (contended); in ~57s of uptime the spout may
	// emit roughly completions + cap, never the unthrottled thousands.
	if tm.RootsEmitted > tm.Completions+5+1 {
		t.Fatalf("MaxPending violated: emitted %d, completed %d", tm.RootsEmitted, tm.Completions)
	}
	if tm.Failed != 0 {
		t.Fatalf("throttled spout still failed %d tuples", tm.Failed)
	}
	if tm.Completions == 0 {
		t.Fatal("nothing completed")
	}
}

// directBolt forwards via EmitDirect to a fixed task of the next stage.
type directBolt struct{}

func (directBolt) Prepare(*Context) {}
func (directBolt) Execute(in tuple.Tuple, em Emitter) {
	em.EmitDirect("sink", 1, "", in.Values)
	// Out-of-range and unknown-consumer emissions are ignored, not fatal.
	em.EmitDirect("sink", 99, "", in.Values)
	em.EmitDirect("ghost", 0, "", in.Values)
}

func TestBoltEmitDirectAnchorsAndRoutes(t *testing.T) {
	cl := testCluster(t, 1)
	rt := mustRuntime(t, DefaultConfig(), cl)
	b := topology.NewBuilder("bd", 1)
	b.SetAckers(1)
	b.Spout("spout", 1).Output("default", "v")
	b.Bolt("mid", 1).Shuffle("spout").Output("default", "v")
	b.Bolt("sink", 3).Direct("mid")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	app := &App{
		Topology: top,
		Spouts:   map[string]func() Spout{"spout": func() Spout { return &testSpout{limit: 10} }},
		Bolts: map[string]func() Bolt{
			"mid":  func() Bolt { return directBolt{} },
			"sink": func() Bolt { return &recordBolt{rec: rec} },
		},
	}
	if err := rt.Submit(app, packAll(top, cl)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(rec.byTask[1]) != 10 || rec.total() != 10 {
		t.Fatalf("byTask = %v, want all 10 on task 1", rec.byTask)
	}
	// The direct emission is anchored: trees complete.
	if tm := rt.Metrics("bd"); tm.Completions != 10 || tm.Failed != 0 {
		t.Fatalf("completions=%d failed=%d", tm.Completions, tm.Failed)
	}
}

// badStreamBolt emits on a stream that was never declared.
type badStreamBolt struct{}

func (badStreamBolt) Prepare(*Context) {}
func (badStreamBolt) Execute(in tuple.Tuple, em Emitter) {
	em.Emit("no-such-stream", in.Values)
}

func TestEmitOnUndeclaredStreamIsIgnored(t *testing.T) {
	cl := testCluster(t, 1)
	rt := mustRuntime(t, DefaultConfig(), cl)
	b := topology.NewBuilder("us", 1)
	b.SetAckers(1)
	b.Spout("spout", 1).Output("default", "v")
	b.Bolt("bad", 1).Shuffle("spout")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	app := &App{
		Topology: top,
		Spouts:   map[string]func() Spout{"spout": func() Spout { return &testSpout{limit: 5} }},
		Bolts:    map[string]func() Bolt{"bad": func() Bolt { return badStreamBolt{} }},
	}
	if err := rt.Submit(app, packAll(top, cl)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The bad emissions vanish but the input tuples still ack.
	if tm := rt.Metrics("us"); tm.Completions != 5 || tm.Failed != 0 {
		t.Fatalf("completions=%d failed=%d", tm.Completions, tm.Failed)
	}
}

// ctxProbe records its Context.
type ctxProbe struct {
	got []*Context
}

func (p *ctxProbe) Prepare(ctx *Context)         { p.got = append(p.got, ctx) }
func (p *ctxProbe) Execute(tuple.Tuple, Emitter) {}

func TestContextCarriesIdentity(t *testing.T) {
	cl := testCluster(t, 1)
	rt := mustRuntime(t, DefaultConfig(), cl)
	b := topology.NewBuilder("ctx", 1)
	b.Spout("spout", 1).Output("default", "v")
	b.Bolt("probe", 3).Shuffle("spout")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	probe := &ctxProbe{}
	app := &App{
		Topology: top,
		Spouts:   map[string]func() Spout{"spout": func() Spout { return &testSpout{limit: 1} }},
		Bolts:    map[string]func() Bolt{"probe": func() Bolt { return probe }},
	}
	if err := rt.Submit(app, packAll(top, cl)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(probe.got) != 3 {
		t.Fatalf("Prepare called %d times, want 3", len(probe.got))
	}
	seen := map[int]bool{}
	for _, ctx := range probe.got {
		if ctx.Topology != "ctx" || ctx.Component != "probe" || ctx.Parallelism != 3 {
			t.Fatalf("bad context %+v", ctx)
		}
		if ctx.Rand == nil {
			t.Fatal("context without Rand")
		}
		seen[ctx.Index] = true
	}
	if len(seen) != 3 {
		t.Fatalf("indexes = %v, want 0,1,2", seen)
	}
}

// statefulBolt counts tuples per incarnation.
type statefulBolt struct {
	incarnations *int
	seen         int
}

func (b *statefulBolt) Prepare(*Context)             { *b.incarnations++ }
func (b *statefulBolt) Execute(tuple.Tuple, Emitter) { b.seen++ }

func TestWorkerRestartRecreatesBoltState(t *testing.T) {
	// As in Storm, in-memory bolt state does not survive a worker
	// restart: a fresh instance is constructed.
	cl := testCluster(t, 1)
	rt := mustRuntime(t, DefaultConfig(), cl)
	spoutDecl := &testSpout{}
	b := topology.NewBuilder("st", 1)
	b.SetAckers(1)
	b.Spout("spout", 1).Output("default", "v")
	b.Bolt("state", 1).Shuffle("spout")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	incarnations := 0
	app := &App{
		Topology: top,
		Spouts:   map[string]func() Spout{"spout": func() Spout { return spoutDecl }},
		Bolts: map[string]func() Bolt{
			"state": func() Bolt { return &statefulBolt{incarnations: &incarnations} },
		},
	}
	if err := rt.Submit(app, packAll(top, cl)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if incarnations != 1 {
		t.Fatalf("incarnations = %d, want 1", incarnations)
	}
	rt.CrashWorker(cl.Slots()[0])
	if err := rt.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if incarnations != 2 {
		t.Fatalf("incarnations after restart = %d, want 2", incarnations)
	}
}

func TestSpoutPlainEmitIsUnanchored(t *testing.T) {
	cl := testCluster(t, 1)
	rt := mustRuntime(t, DefaultConfig(), cl)
	b := topology.NewBuilder("ua2", 1)
	b.SetAckers(1) // ackers exist, but plain Emit must bypass them
	b.Spout("spout", 1).Output("default", "v")
	b.Bolt("sink", 1).Shuffle("spout")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	app := &App{
		Topology: top,
		Spouts:   map[string]func() Spout{"spout": func() Spout { return &plainEmitSpout{} }},
		Bolts:    map[string]func() Bolt{"sink": func() Bolt { return &recordBolt{rec: rec} }},
	}
	if err := rt.Submit(app, packAll(top, cl)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if rec.total() != 10 {
		t.Fatalf("sink got %d, want 10", rec.total())
	}
	if tm := rt.Metrics("ua2"); tm.RootsEmitted != 0 || tm.Completions != 0 {
		t.Fatalf("unanchored emit tracked: %+v", tm)
	}
}

type plainEmitSpout struct{ n int }

func (s *plainEmitSpout) Open(*Context) {}
func (s *plainEmitSpout) NextTuple(em SpoutEmitter) {
	if s.n < 10 {
		em.Emit("", tuple.Values{s.n})
		s.n++
	}
}
func (s *plainEmitSpout) Ack(any)  {}
func (s *plainEmitSpout) Fail(any) {}

func TestMultiTopologyIsolation(t *testing.T) {
	// Two topologies share the cluster but not slots; each completes its
	// own tuples.
	cl := testCluster(t, 2)
	rt := mustRuntime(t, DefaultConfig(), cl)
	mk := func(name string) (*App, *recorder) {
		b := topology.NewBuilder(name, 1)
		b.SetAckers(1)
		b.Spout("s", 1).Output("default", "v")
		b.Bolt("b", 1).Shuffle("s")
		top, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder()
		return &App{
			Topology: top,
			Spouts:   map[string]func() Spout{"s": func() Spout { return &testSpout{limit: 20} }},
			Bolts:    map[string]func() Bolt{"b": func() Bolt { return &recordBolt{rec: rec} }},
		}, rec
	}
	a1, r1 := mk("alpha")
	a2, r2 := mk("beta")
	as1 := cluster.NewAssignment(0)
	for _, e := range a1.Topology.Executors() {
		as1.Assign(e, cluster.SlotID{Node: "node01", Port: cluster.BasePort})
	}
	as2 := cluster.NewAssignment(0)
	for _, e := range a2.Topology.Executors() {
		as2.Assign(e, cluster.SlotID{Node: "node02", Port: cluster.BasePort})
	}
	if err := rt.Submit(a1, as1); err != nil {
		t.Fatal(err)
	}
	if err := rt.Submit(a2, as2); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r1.total() != 20 || r2.total() != 20 {
		t.Fatalf("totals = %d/%d, want 20 each", r1.total(), r2.total())
	}
	if rt.Metrics("alpha").Completions != 20 || rt.Metrics("beta").Completions != 20 {
		t.Fatal("per-topology completions wrong")
	}
}

func TestPerComponentStats(t *testing.T) {
	cl := testCluster(t, 1)
	rt := mustRuntime(t, DefaultConfig(), cl)
	spout := &testSpout{limit: 50}
	midRec, sinkRec := newRecorder(), newRecorder()
	app := chainApp(t, spout, midRec, sinkRec, 2, 1)
	if err := rt.Submit(app, packAll(app.Topology, cl)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	tm := rt.Metrics("test")
	spoutStats := tm.Component("spout")
	midStats := tm.Component("mid")
	sinkStats := tm.Component("sink")
	if spoutStats.Executed != 50 || spoutStats.Emitted != 50 {
		t.Fatalf("spout stats = %+v", spoutStats)
	}
	if midStats.Executed != 50 || midStats.Emitted != 50 {
		t.Fatalf("mid stats = %+v", midStats)
	}
	if sinkStats.Executed != 50 || sinkStats.Emitted != 0 {
		t.Fatalf("sink stats = %+v", sinkStats)
	}
	for _, name := range []string{"spout", "mid", "sink"} {
		if tm.Component(name).CPUCycles <= 0 {
			t.Fatalf("%s consumed no CPU", name)
		}
	}
}

func TestTransferBatchingDeliversEverythingWithOneNICSend(t *testing.T) {
	run := func(batch bool) (int64, int64, int64) {
		cl := testCluster(t, 2)
		cfg := DefaultConfig()
		if batch {
			cfg.BatchFlush = 2 * time.Millisecond
			cfg.BatchMaxTuples = 32
		}
		rt := mustRuntime(t, cfg, cl)
		spout := &testSpout{limit: 400}
		rec := newRecorder()
		app := chainApp(t, spout, newRecorder(), rec, 1, 1)
		// Four synchronized spout executors on node01 bursting at the same
		// instants; everything else on node02: every data hop crosses the
		// wire, and bursts find the NIC busy.
		b := topology.NewBuilder("test", 4)
		b.SetAckers(1)
		b.Spout("spout", 4).Output("default", "v")
		b.Bolt("mid", 1).Shuffle("spout").Output("default", "v")
		b.Bolt("sink", 1).Shuffle("mid")
		top, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		app.Topology = top
		a := cluster.NewAssignment(0)
		for _, e := range app.Topology.Executors() {
			if e.Component == "spout" {
				a.Assign(e, cluster.SlotID{Node: "node01", Port: cluster.BasePort})
			} else {
				a.Assign(e, cluster.SlotID{Node: "node02", Port: cluster.BasePort})
			}
		}
		if err := rt.Submit(app, a); err != nil {
			t.Fatal(err)
		}
		if err := rt.RunFor(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		tm := rt.Metrics("test")
		return tm.Completions, tm.Failed, rt.nodes["node01"].nic.MessagesSent()
	}
	plainDone, plainFailed, plainSends := run(false)
	batchDone, batchFailed, batchSends := run(true)
	if plainDone != 400 || batchDone != 400 || plainFailed != 0 || batchFailed != 0 {
		t.Fatalf("completions plain=%d batch=%d failed=%d/%d",
			plainDone, batchDone, plainFailed, batchFailed)
	}
	// Batching must strictly reduce wire messages.
	if batchSends >= plainSends {
		t.Fatalf("batching sent %d wire messages, plain %d", batchSends, plainSends)
	}
}
