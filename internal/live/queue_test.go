package live

import (
	"math/rand/v2"
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

// floodSpout emits burst unanchored tuples per cycle, forever: a closed
// loop only the bolts' queue bound holds back.
type floodSpout struct{ burst int }

func (floodSpout) Open(*engine.Context) {}
func (s floodSpout) NextTuple(em engine.SpoutEmitter) {
	for i := 0; i < s.burst; i++ {
		em.Emit("", tuple.Values{i})
	}
}
func (floodSpout) Ack(any)  {}
func (floodSpout) Fail(any) {}

// spinBolt burns d of CPU per tuple, so a flooding spout outruns it.
type spinBolt struct{ d time.Duration }

func (spinBolt) Prepare(*engine.Context) {}
func (b spinBolt) Execute(tuple.Tuple, engine.Emitter) {
	for t0 := time.Now(); time.Since(t0) < b.d; { //nolint:staticcheck // busy-wait is the point
	}
}

// queueApp is spouts × "s" shuffling into bolts × "b".
func queueApp(t *testing.T, name string, spouts, bolts int) *engine.App {
	t.Helper()
	tb := topology.NewBuilder(name, 2)
	tb.Spout("s", spouts).Output("", "v")
	tb.Bolt("b", bolts).Shuffle("s")
	top, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &engine.App{
		Topology: top,
		Spouts:   map[string]func() engine.Spout{"s": func() engine.Spout { return floodSpout{burst: 16} }},
		Bolts:    map[string]func() engine.Bolt{"b": func() engine.Bolt { return spinBolt{d: 20 * time.Microsecond} }},
	}
}

// place assigns every executor of a component to one slot.
func place(top *topology.Topology, where map[string]cluster.SlotID) *cluster.Assignment {
	a := cluster.NewAssignment(0)
	for _, e := range top.Executors() {
		a.Assign(e, where[e.Component])
	}
	return a
}

// queuedTotal sums every executor's queue count.
func queuedTotal(eng *Engine) (n int64) {
	for _, le := range eng.routes.Load().byDense {
		n += le.queued.Load()
	}
	return n
}

// TestQueueBoundHoldsAndWakesEverySender parks a bolt's consumer (the
// engine is never started, so the test is the consumer) and lets eight
// senders deliver batches of 1–64 tuples to it concurrently. With nothing
// taken off the queue, admissions stop once the count reaches the bound,
// having overshot it by less than one batch, and every sender ends up
// blocked. Once the consumer resumes, every sender gets all its batches
// through — no wake-up is lost — and the count returns to exactly 0.
func TestQueueBoundHoldsAndWakesEverySender(t *testing.T) {
	const senders, batches, maxBatch = 8, 300, 64
	cl, err := cluster.Uniform(1, 1, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	app := queueApp(t, "bound", senders, 1)
	slot := cl.Slots()[0]
	eng, err := NewEngine(testConfig(), cl)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(app, place(app.Topology, map[string]cluster.SlotID{"s": slot, "b": slot})); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Stop)
	tgt := eng.execs[topology.ExecutorID{Topology: "bound", Component: "b", Index: 0}]

	var (
		started, finished [senders]atomic.Int64
		sent              atomic.Int64
		wg                sync.WaitGroup
	)
	// A failing test must not leave a sender to report after it returns.
	t.Cleanup(func() { eng.Stop(); wg.Wait() })
	for i := 0; i < senders; i++ {
		le := eng.execs[topology.ExecutorID{Topology: "bound", Component: "s", Index: i}]
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(i), 27))
			for k := 0; k < batches; k++ {
				msgs := eng.msgPool.get()
				for j := 1 + rng.IntN(maxBatch); j > 0; j-- {
					msgs = append(msgs, liveMsg{tup: tuple.Tuple{Values: tuple.Values{k}}})
				}
				n := int64(len(msgs))
				started[i].Add(1)
				if !le.deliver(&delivery{to: tgt, msgs: msgs}, nil) {
					t.Errorf("sender %d: delivery %d refused", i, k)
					return
				}
				sent.Add(n)
				finished[i].Add(1)
			}
		}()
	}

	// Parked: once the count has reached the bound nothing can be admitted
	// any more, so the count is frozen; every sender then blocks inside a
	// delivery it started.
	waitFor(t, 10*time.Second, "every sender blocked at the bound", func() bool {
		for i := range started {
			if started[i].Load() == finished[i].Load() {
				return false
			}
		}
		return tgt.queued.Load() >= queueBound
	})
	if q := tgt.queued.Load(); q >= queueBound+maxBatch {
		t.Fatalf("parked queue holds %d tuples: more than one batch (≤ %d) past the bound %d", q, maxBatch, queueBound)
	}
	if n := len(tgt.in); n > queueBound {
		t.Fatalf("%d batches in a channel of %d slots", n, queueBound)
	}

	// Resume, as a slow consumer, so the senders pile up at the bound again
	// and again.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var got int64
	take := func(b inBatch) {
		if q := tgt.queued.Load(); q >= queueBound+maxBatch {
			t.Fatalf("queue holds %d tuples, bound %d, batches ≤ %d", q, queueBound, maxBatch)
		}
		n := len(b.msgs)
		got += int64(n)
		tgt.credit(n)
		eng.pending.Add(-int64(n))
		eng.releaseInput(b, 0)
	}
	timeout := time.After(30 * time.Second)
	for running := true; running; {
		select {
		case b := <-tgt.in:
			take(b)
			runtime.Gosched()
		case <-done:
			running = false
		case <-timeout:
			t.Fatalf("senders still blocked with %d tuples queued: a wake-up was lost", tgt.queued.Load())
		}
	}
	for len(tgt.in) > 0 {
		take(<-tgt.in)
	}
	if q := tgt.queued.Load(); q != 0 {
		t.Fatalf("queue count %d after every batch was taken, want 0", q)
	}
	if got != sent.Load() || eng.Pending() != 0 {
		t.Fatalf("took %d tuples of %d sent, pending %d", got, sent.Load(), eng.Pending())
	}
}

// TestQueueCountReturnsToZero loads a topology's bolt queues to their
// bound and then moves or drops the queued batches on each path that
// can: a crashed worker and a failed node (the dead-executor drainer), a
// live Apply whose drain times out (the queues travel loaded), and Stop.
// After Quiesce — after Stop, for Stop — every queue count is exactly 0.
func TestQueueCountReturnsToZero(t *testing.T) {
	spoutSlot := cluster.SlotID{Node: "node01", Port: cluster.BasePort}
	boltSlot := cluster.SlotID{Node: "node02", Port: cluster.BasePort}
	for _, tc := range []struct {
		name string
		act  func(t *testing.T, eng *Engine, a *cluster.Assignment)
	}{
		{"crash", func(t *testing.T, eng *Engine, _ *cluster.Assignment) {
			if eng.CrashWorker(boltSlot) != 2 {
				t.Fatal("CrashWorker killed no bolt")
			}
		}},
		{"fail-node", func(t *testing.T, eng *Engine, _ *cluster.Assignment) {
			if !eng.FailNode(boltSlot.Node) {
				t.Fatal("FailNode found no node")
			}
		}},
		{"apply", func(t *testing.T, eng *Engine, a *cluster.Assignment) {
			next := a.Clone()
			next.ID = 1
			next.Assign(topology.ExecutorID{Topology: "zero", Component: "b", Index: 0}, spoutSlot)
			if moved, err := eng.Apply("zero", next); err != nil || moved != 1 {
				t.Fatalf("Apply = %d, %v; want 1 moved", moved, err)
			}
		}},
		{"stop", func(t *testing.T, eng *Engine, _ *cluster.Assignment) { eng.Stop() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := cluster.Uniform(2, 2, 2000, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig()
			cfg.DrainTimeout = time.Millisecond // Apply moves the queues loaded
			eng, err := NewEngine(cfg, cl)
			if err != nil {
				t.Fatal(err)
			}
			app := queueApp(t, "zero", 1, 2)
			a := place(app.Topology, map[string]cluster.SlotID{"s": spoutSlot, "b": boltSlot})
			if err := eng.Submit(app, a); err != nil {
				t.Fatal(err)
			}
			if err := eng.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(eng.Stop)
			waitFor(t, 10*time.Second, "the bolt queues to fill", func() bool { return queuedTotal(eng) >= queueBound })
			tc.act(t, eng, a)
			if !eng.stopped.Load() {
				eng.HaltSpouts()
				if !eng.Quiesce(10 * time.Second) {
					t.Fatalf("no quiesce: %d pending", eng.Pending())
				}
			}
			if q := queuedTotal(eng); q != 0 {
				t.Fatalf("queue counts sum to %d, want 0", q)
			}
		})
	}
}

// TestQueueCountReturnsToZeroAcrossProcesses migrates a loaded bolt to
// another worker process without draining first, so its queued batches
// strand in the departed executor's queue and the pump forwards them to
// the new owner. Both processes' queue counts return to exactly 0.
func TestQueueCountReturnsToZeroAcrossProcesses(t *testing.T) {
	cl, err := cluster.Uniform(2, 2, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	slots := cl.Slots()
	app := queueApp(t, "zero-x", 1, 1)
	a := place(app.Topology, map[string]cluster.SlotID{"s": slots[0], "b": slots[1]})
	var engs [2]*Engine
	var sinks [2]*wireSink
	for i := range engs {
		sinks[i] = &wireSink{}
		cfg := testConfig()
		cfg.LocalSlots = []cluster.SlotID{slots[i]}
		cfg.Remote = sinks[i]
		if engs[i], err = NewEngine(cfg, cl); err != nil {
			t.Fatal(err)
		}
		if err := engs[i].Submit(queueApp(t, "zero-x", 1, 1), a); err != nil {
			t.Fatal(err)
		}
	}
	sinks[0].peer.Store(engs[1])
	sinks[1].peer.Store(engs[0])
	for _, eng := range engs {
		if err := eng.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Stop)
	}
	waitFor(t, 10*time.Second, "the remote bolt's queue to fill", func() bool { return queuedTotal(engs[1]) >= queueBound })

	// The bolt moves to the spout's process: the new owner first, so the
	// pump's frames find it resident.
	next := place(app.Topology, map[string]cluster.SlotID{"s": slots[0], "b": slots[0]})
	next.ID = 1
	for _, eng := range engs {
		if _, err := eng.ApplyAssignment("zero-x", next); err != nil {
			t.Fatal(err)
		}
	}
	for _, eng := range engs {
		eng.HaltSpouts()
	}
	// A process is quiescent while the pump is still handing its last
	// frame to the other one, so wait for both at once.
	waitFor(t, 10*time.Second, "both processes quiescent with empty queues", func() bool {
		return engs[0].Pending() == 0 && engs[1].Pending() == 0 &&
			queuedTotal(engs[0]) == 0 && queuedTotal(engs[1]) == 0
	})
	if sinks[1].kinds[frameData].Load() == 0 {
		t.Fatal("the departed process forwarded no stranded frame: the pump was not exercised")
	}
}
