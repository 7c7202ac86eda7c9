package live

import (
	"sync/atomic"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/engine"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

func testConfig() Config {
	return Config{
		Seed:            1,
		SpoutHaltDelay:  5 * time.Millisecond,
		DrainTimeout:    2 * time.Second,
		InterNodeCopies: 2,
		WireCost:        time.Microsecond,
		RefMHz:          2000,
	}
}

// recordBolt counts tuples per executor index into a shared array.
type recordBolt struct {
	counts *[2]atomic.Int64
	idx    int
}

func (b *recordBolt) Prepare(ctx *engine.Context)         { b.idx = ctx.Index }
func (b *recordBolt) Execute(tuple.Tuple, engine.Emitter) { b.counts[b.idx].Add(1) }

// groupWords drive the fields-grouping assertions.
var groupWords = []string{"alpha", "beta", "gamma", "delta"}

// finiteSpout emits exactly limit cycles — one default-stream tuple plus one
// direct tuple per cycle — then idles.
type finiteSpout struct{ limit, n int }

func (s *finiteSpout) Open(*engine.Context) {}
func (s *finiteSpout) NextTuple(em engine.SpoutEmitter) {
	if s.n >= s.limit {
		return
	}
	w := groupWords[s.n%len(groupWords)]
	em.Emit("", tuple.Values{w})
	em.EmitDirect("direct", s.n%2, "", tuple.Values{w})
	s.n++
}
func (s *finiteSpout) Ack(any)  {}
func (s *finiteSpout) Fail(any) {}

// TestGroupingsRouteLikeStorm runs all six groupings on one worker slot and
// checks exact per-task tuple counts.
func TestGroupingsRouteLikeStorm(t *testing.T) {
	const n = 200
	b := topology.NewBuilder("groupings", 1)
	b.Spout("src", 1).Output("", "word")
	b.Bolt("shuffle", 2).Shuffle("src")
	b.Bolt("byword", 2).Fields("src", "word")
	b.Bolt("bcast", 2).All("src")
	b.Bolt("solo", 2).Global("src")
	b.Bolt("direct", 2).Direct("src")
	b.Bolt("local", 2).LocalOrShuffle("src")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	counts := map[string]*[2]atomic.Int64{}
	bolts := map[string]func() engine.Bolt{}
	for _, name := range []string{"shuffle", "byword", "bcast", "solo", "direct", "local"} {
		c := new([2]atomic.Int64)
		counts[name] = c
		bolts[name] = func() engine.Bolt { return &recordBolt{counts: c} }
	}
	app := &engine.App{
		Topology:      top,
		Spouts:        map[string]func() engine.Spout{"src": func() engine.Spout { return &finiteSpout{limit: n} }},
		Bolts:         bolts,
		SpoutInterval: map[string]time.Duration{"src": time.Millisecond},
	}

	cl, err := cluster.Uniform(1, 4, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	slot := cluster.SlotID{Node: "node01", Port: cluster.BasePort}
	initial := cluster.NewAssignment(0)
	for _, e := range top.Executors() {
		initial.Assign(e, slot)
	}

	eng, err := NewEngine(testConfig(), cl)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(app, initial); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	// 200 to shuffle, byword, solo, direct, local; 400 broadcast.
	const wantSink = 7 * n
	waitFor(t, 10*time.Second, "all tuples processed", func() bool {
		return eng.Totals().SinkProcessed >= wantSink
	})
	eng.HaltSpouts()
	if !eng.Quiesce(2 * time.Second) {
		t.Fatal("engine did not quiesce")
	}
	eng.Stop()

	get := func(name string, i int) int64 { return counts[name][i].Load() }
	// Shuffle from a single producer round-robins exactly.
	if get("shuffle", 0) != n/2 || get("shuffle", 1) != n/2 {
		t.Errorf("shuffle counts = [%d %d], want [%d %d]", get("shuffle", 0), get("shuffle", 1), n/2, n/2)
	}
	// Fields: each word lands on its hashed task, 50 occurrences each.
	var wantFields [2]int64
	for _, w := range groupWords {
		wantFields[tuple.HashKey(tuple.KeyString(w)+"\x1f", 2)] += n / int64(len(groupWords))
	}
	if get("byword", 0) != wantFields[0] || get("byword", 1) != wantFields[1] {
		t.Errorf("fields counts = [%d %d], want %v", get("byword", 0), get("byword", 1), wantFields)
	}
	// All: every task sees every tuple.
	if get("bcast", 0) != n || get("bcast", 1) != n {
		t.Errorf("all counts = [%d %d], want [%d %d]", get("bcast", 0), get("bcast", 1), n, n)
	}
	// Global: everything to task 0.
	if get("solo", 0) != n || get("solo", 1) != 0 {
		t.Errorf("global counts = [%d %d], want [%d 0]", get("solo", 0), get("solo", 1), n)
	}
	// Direct: the spout alternates target tasks explicitly.
	if get("direct", 0) != n/2 || get("direct", 1) != n/2 {
		t.Errorf("direct counts = [%d %d], want [%d %d]", get("direct", 0), get("direct", 1), n/2, n/2)
	}
	// Local-or-shuffle: both tasks are co-located, so it round-robins the
	// local set.
	if get("local", 0) != n/2 || get("local", 1) != n/2 {
		t.Errorf("local counts = [%d %d], want [%d %d]", get("local", 0), get("local", 1), n/2, n/2)
	}

	tot := eng.Totals()
	if tot.TuplesSent != wantSink || tot.Processed != wantSink {
		t.Errorf("sent/processed = %d/%d, want %d", tot.TuplesSent, tot.Processed, wantSink)
	}
	if tot.InterNodeSent != 0 || tot.InterProcessSent != 0 {
		t.Errorf("single-slot run crossed boundaries: interNode=%d interProc=%d", tot.InterNodeSent, tot.InterProcessSent)
	}
	if tot.RootsEmitted != 2*n {
		t.Errorf("roots = %d, want %d", tot.RootsEmitted, 2*n)
	}
	if c := eng.DrainLatency().Count(); c != wantSink {
		t.Errorf("latency samples = %d, want %d", c, wantSink)
	}
}

// tickSpout emits one reliable tuple per cycle forever and counts acks.
type tickSpout struct {
	n     int
	acked *atomic.Int64
}

func (s *tickSpout) Open(*engine.Context) {}
func (s *tickSpout) NextTuple(em engine.SpoutEmitter) {
	em.EmitWithID("", tuple.Values{s.n}, s.n)
	s.n++
}
func (s *tickSpout) Ack(any)  { s.acked.Add(1) }
func (s *tickSpout) Fail(any) {}

type devnullBolt struct{}

func (devnullBolt) Prepare(*engine.Context)             {}
func (devnullBolt) Execute(tuple.Tuple, engine.Emitter) {}

// TestApplyMigratesExecutors exercises the smoothed re-assignment path:
// executors move between worker groups, processing continues, and the
// unanchored runtime acks reliable emissions immediately.
func TestApplyMigratesExecutors(t *testing.T) {
	b := topology.NewBuilder("mig", 1)
	b.Spout("s", 1).Output("", "v")
	b.Bolt("b", 2).Shuffle("s")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	acked := new(atomic.Int64)
	app := &engine.App{
		Topology:      top,
		Spouts:        map[string]func() engine.Spout{"s": func() engine.Spout { return &tickSpout{acked: acked} }},
		Bolts:         map[string]func() engine.Bolt{"b": func() engine.Bolt { return devnullBolt{} }},
		SpoutInterval: map[string]time.Duration{"s": time.Millisecond},
	}
	cl, err := cluster.Uniform(2, 4, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	n1 := cluster.SlotID{Node: "node01", Port: cluster.BasePort}
	n2 := cluster.SlotID{Node: "node02", Port: cluster.BasePort}
	initial := cluster.NewAssignment(0)
	for _, e := range top.Executors() {
		initial.Assign(e, n1)
	}

	eng, err := NewEngine(testConfig(), cl)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(app, initial); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	waitFor(t, 5*time.Second, "initial traffic", func() bool {
		return eng.Totals().SinkProcessed > 100
	})
	if got := eng.Totals().InterNodeSent; got != 0 {
		t.Fatalf("pre-migration inter-node transfers = %d, want 0", got)
	}

	// Error paths first.
	if _, err := eng.Apply("nope", initial); err == nil {
		t.Error("Apply(unknown topology) should fail")
	}
	partial := cluster.NewAssignment(1)
	partial.Assign(topology.ExecutorID{Topology: "mig", Component: "s", Index: 0}, n1)
	if _, err := eng.Apply("mig", partial); err == nil {
		t.Error("Apply(partial assignment) should fail")
	}
	if moved, err := eng.Apply("mig", initial); err != nil || moved != 0 {
		t.Errorf("Apply(no-op) = %d, %v; want 0, nil", moved, err)
	}

	next := initial.Clone()
	next.ID = 1
	next.Assign(topology.ExecutorID{Topology: "mig", Component: "b", Index: 1}, n2)
	moved, err := eng.Apply("mig", next)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Fatalf("moved = %d, want 1", moved)
	}
	cur, ok := eng.CurrentAssignment("mig")
	if !ok || !cur.Equal(next) {
		t.Fatal("current assignment does not match applied assignment")
	}

	// Shuffle alternates targets, so half the post-migration traffic now
	// crosses the emulated node boundary — and the spout keeps running.
	waitFor(t, 5*time.Second, "post-migration inter-node traffic", func() bool {
		return eng.Totals().InterNodeSent > 50
	})
	tot := eng.Totals()
	if tot.Applies != 1 || tot.Migrations != 1 {
		t.Errorf("applies/migrations = %d/%d, want 1/1", tot.Applies, tot.Migrations)
	}
	if acked.Load() == 0 {
		t.Error("reliable emissions were never acked (unanchored mode should ack immediately)")
	}
}
