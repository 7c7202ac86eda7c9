package live

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/engine"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

// checkRouteTable asserts a snapshot's internal consistency: every
// executor in a slot's group is placed on that slot, and the groups
// partition exactly the dense executor set. A violated invariant means a
// reader could observe a torn placement.
func checkRouteTable(rt *routeTable) error {
	total := 0
	for s, g := range rt.groups {
		for _, le := range g {
			total++
			if got := rt.slotOf[le.dense]; got != s {
				return fmt.Errorf("executor %v grouped on %v but placed on %v", le.id, s, got)
			}
		}
	}
	if total != len(rt.byDense) {
		return fmt.Errorf("groups hold %d executors, dense index holds %d", total, len(rt.byDense))
	}
	return nil
}

// idSpout emits bursts of sequence-numbered tuples; seq is read only
// after Engine.Stop (which waits for the goroutine).
type idSpout struct{ seq int64 }

func (s *idSpout) Open(*engine.Context) {}
func (s *idSpout) NextTuple(em engine.SpoutEmitter) {
	for i := 0; i < 32; i++ {
		em.Emit("", tuple.Values{s.seq})
		s.seq++
	}
}
func (s *idSpout) Ack(any)  {}
func (s *idSpout) Fail(any) {}

// TestRoutingSnapshotStress races full-tilt emissions against repeated
// Apply re-assignments under the race detector: the routing snapshot must
// stay internally consistent at every observable instant, and no tuple
// may be lost or duplicated across any number of placement swaps.
func TestRoutingSnapshotStress(t *testing.T) {
	b := topology.NewBuilder("stress", 2)
	b.Spout("s", 1).Output("", "id")
	b.Bolt("work", 2).Shuffle("s")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cons := &conserve{seen: make(map[int64]int)}
	spout := &idSpout{}
	app := &engine.App{
		Topology:      top,
		Spouts:        map[string]func() engine.Spout{"s": func() engine.Spout { return spout }},
		Bolts:         map[string]func() engine.Bolt{"work": func() engine.Bolt { return &sinkBolt{c: cons} }},
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

	cfg := testConfig()
	cfg.SpoutHaltDelay = 2 * time.Millisecond
	eng, err := NewEngine(cfg, cl)
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

	// Concurrent snapshot validator: loads the published table as fast as
	// it can while Apply churns underneath.
	stopCheck := make(chan struct{})
	var checkErr atomic.Pointer[string]
	var checkWG sync.WaitGroup
	checkWG.Add(1)
	go func() {
		defer checkWG.Done()
		for {
			select {
			case <-stopCheck:
				return
			default:
			}
			if err := checkRouteTable(eng.routes.Load()); err != nil {
				s := err.Error()
				checkErr.Store(&s)
				return
			}
			runtime.Gosched()
		}
	}()

	// Churn placements: move both work tasks (and on odd rounds the spout
	// too) back and forth across the emulated node boundary.
	workEx := func(i int) topology.ExecutorID {
		return topology.ExecutorID{Topology: "stress", Component: "work", Index: i}
	}
	spoutEx := topology.ExecutorID{Topology: "stress", Component: "s", Index: 0}
	for round := 0; round < 12; round++ {
		next := initial.Clone()
		next.ID = int64(round + 1)
		if round%2 == 0 {
			next.Assign(workEx(0), n2)
			next.Assign(workEx(1), n2)
		}
		if round%4 == 1 {
			next.Assign(spoutEx, n2)
		}
		if _, err := eng.Apply("stress", next); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond) // let traffic flow between swaps
	}
	close(stopCheck)
	checkWG.Wait()
	if s := checkErr.Load(); s != nil {
		t.Fatalf("inconsistent routing snapshot observed during churn: %s", *s)
	}

	eng.HaltSpouts()
	if !eng.Quiesce(5 * time.Second) {
		t.Fatal("engine did not quiesce")
	}
	time.Sleep(10 * time.Millisecond)
	if !eng.Quiesce(5 * time.Second) {
		t.Fatal("engine did not re-quiesce")
	}
	eng.Stop()

	emitted := spout.seq
	if emitted == 0 {
		t.Fatal("spout emitted nothing")
	}
	tot := eng.Totals()
	if tot.RootsEmitted != emitted {
		t.Errorf("engine counted %d roots, spout emitted %d", tot.RootsEmitted, emitted)
	}
	cons.mu.Lock()
	defer cons.mu.Unlock()
	if int64(len(cons.seen)) != emitted {
		t.Errorf("sink saw %d distinct ids, spout emitted %d (lost %d)",
			len(cons.seen), emitted, emitted-int64(len(cons.seen)))
	}
	for id, c := range cons.seen {
		if c != 1 {
			t.Fatalf("id %d delivered %d times, want exactly once", id, c)
		}
	}
}

// TestRouteObservesSinglePlacement drives route() by hand while Apply
// flips both broadcast targets between nodes: because the two targets
// always move together, every single emission must classify both hops
// identically — one emission never mixes the old and new placement.
func TestRouteObservesSinglePlacement(t *testing.T) {
	b := topology.NewBuilder("torn", 1)
	b.Spout("s", 1).Output("", "v")
	b.Bolt("bcast", 2).All("s")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	app := &engine.App{
		Topology: top,
		Spouts:   map[string]func() engine.Spout{"s": func() engine.Spout { return &idSpout{} }},
		Bolts:    map[string]func() engine.Bolt{"bcast": func() engine.Bolt { return devnullBolt{} }},
	}
	cl, err := cluster.Uniform(2, 4, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	n1 := cluster.SlotID{Node: "node01", Port: cluster.BasePort}
	n2 := cluster.SlotID{Node: "node02", Port: cluster.BasePort}
	bc := func(i int) topology.ExecutorID {
		return topology.ExecutorID{Topology: "torn", Component: "bcast", Index: i}
	}
	initial := cluster.NewAssignment(0)
	for _, e := range top.Executors() {
		initial.Assign(e, n1)
	}

	cfg := testConfig()
	cfg.SpoutHaltDelay = time.Millisecond
	cfg.DrainTimeout = 10 * time.Millisecond
	eng, err := NewEngine(cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	// The engine is never started: route() is exercised directly on the
	// spout executor while Apply republishes snapshots underneath.
	if err := eng.Submit(app, initial); err != nil {
		t.Fatal(err)
	}
	le := eng.execs[topology.ExecutorID{Topology: "torn", Component: "s", Index: 0}]

	done := make(chan struct{})
	var applyWG sync.WaitGroup
	applyWG.Add(1)
	go func() {
		defer applyWG.Done()
		for round := 0; ; round++ {
			select {
			case <-done:
				return
			default:
			}
			next := initial.Clone()
			next.ID = int64(round + 1)
			if round%2 == 0 {
				next.Assign(bc(0), n2)
				next.Assign(bc(1), n2)
			}
			if _, err := eng.Apply("torn", next); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	vals := tuple.Values{int64(7)}
	for i := 0; i < 5000; i++ {
		var out []delivery
		if n, _ := le.route(&out, "", vals, time.Time{}, 0); n != 2 {
			t.Fatalf("route delivered %d transfers, want 2", n)
		}
		for _, d := range out {
			if d.hop != out[0].hop {
				t.Fatalf("emission %d mixed placements: hops %v and %v in one routing pass",
					i, out[0].hop, d.hop)
			}
		}
	}
	close(done)
	applyWG.Wait()
	eng.Stop()
}

// TestEmissionsFlowWhileEngineLockHeld pins the no-lock property of the
// emission hot path directly: with eng.mu held exclusively for the whole
// window, spouts and bolts must keep moving tuples, because routing reads
// only the atomic snapshot.
func TestEmissionsFlowWhileEngineLockHeld(t *testing.T) {
	b := topology.NewBuilder("locked", 1)
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
	// One bolt remote, so the costed inter-node path runs lock-free too.
	initial.Assign(topology.ExecutorID{Topology: "locked", Component: "b", Index: 1}, n2)

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

	eng.mu.Lock()
	before := eng.Totals().SinkProcessed
	time.Sleep(150 * time.Millisecond)
	during := eng.Totals().SinkProcessed - before
	eng.mu.Unlock()
	if during == 0 {
		t.Fatal("no tuples flowed while the engine lock was held: emission path still acquires eng.mu")
	}
}

// TestStopCancelsPendingResume asserts Engine.Stop cancels the retained
// spout-resume timer: after Stop, a pending resumeSpoutsAfter must never
// fire.
func TestStopCancelsPendingResume(t *testing.T) {
	b := topology.NewBuilder("timer", 1)
	b.Spout("s", 1).Output("", "v")
	b.Bolt("b", 1).Shuffle("s")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	app := &engine.App{
		Topology:      top,
		Spouts:        map[string]func() engine.Spout{"s": func() engine.Spout { return &idSpout{} }},
		Bolts:         map[string]func() engine.Bolt{"b": func() engine.Bolt { return devnullBolt{} }},
		SpoutInterval: map[string]time.Duration{"s": time.Millisecond},
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

	eng.HaltSpouts()
	eng.resumeSpoutsAfter(30 * time.Millisecond)
	eng.Stop()
	time.Sleep(80 * time.Millisecond)
	if !eng.spoutsHalted.Load() {
		t.Fatal("resume timer fired after Stop: timer leaked past engine shutdown")
	}
}
