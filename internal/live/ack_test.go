package live

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/engine"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

// reliableSpout emits limit anchored tuples (msgID = sequence number) and
// replays any failed ones until everything acks. Ack bookkeeping lives in
// the shared ackLedger so it survives spout restarts.
type reliableSpout struct {
	ledger *ackLedger
	next   int
	limit  int
}

// ackLedger is the cross-incarnation record of what a reliable spout's
// tuples did — the test oracle for at-least-once conservation.
type ackLedger struct {
	mu      sync.Mutex
	acked   map[int]int // seq → ack count
	replays []int       // failed seqs awaiting re-emit
	emits   map[int]int // seq → emit count
	opens   int
}

func newAckLedger() *ackLedger {
	return &ackLedger{acked: make(map[int]int), emits: make(map[int]int)}
}

func (l *ackLedger) ackedCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.acked)
}

// lost returns seqs that were never acked; dupAcked returns seqs acked
// more than once (allowed by at-least-once but worth surfacing).
func (l *ackLedger) lost(limit int) (lost, dupAcked []int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for s := 0; s < limit; s++ {
		switch {
		case l.acked[s] == 0:
			lost = append(lost, s)
		case l.acked[s] > 1:
			dupAcked = append(dupAcked, s)
		}
	}
	return lost, dupAcked
}

func (s *reliableSpout) Open(*engine.Context) {
	s.ledger.mu.Lock()
	s.ledger.opens++
	s.ledger.mu.Unlock()
}

func (s *reliableSpout) NextTuple(em engine.SpoutEmitter) {
	l := s.ledger
	l.mu.Lock()
	var seq int
	switch {
	case len(l.replays) > 0:
		seq = l.replays[0]
		l.replays = l.replays[1:]
	case s.next < s.limit:
		seq = s.next
		s.next++
	default:
		l.mu.Unlock()
		return
	}
	l.emits[seq]++
	l.mu.Unlock()
	em.EmitWithID("", tuple.Values{int64(seq)}, seq)
}

func (s *reliableSpout) Ack(id any) {
	seq := id.(int)
	s.ledger.mu.Lock()
	s.ledger.acked[seq]++
	s.ledger.mu.Unlock()
}

func (s *reliableSpout) Fail(id any) {
	seq := id.(int)
	s.ledger.mu.Lock()
	s.ledger.replays = append(s.ledger.replays, seq)
	s.ledger.mu.Unlock()
}

// slowFirstBolt stalls past the ack timeout the first time it sees each
// seq, forcing a spout-side timeout + replay; replays pass through fast.
type slowFirstBolt struct {
	mu    sync.Mutex
	seen  map[int64]bool
	stall time.Duration
}

func (b *slowFirstBolt) Prepare(*engine.Context) {}
func (b *slowFirstBolt) Execute(tp tuple.Tuple, em engine.Emitter) {
	seq := tp.Values[0].(int64)
	b.mu.Lock()
	first := !b.seen[seq]
	b.seen[seq] = true
	b.mu.Unlock()
	if first {
		time.Sleep(b.stall)
	}
	em.Emit("", tp.Values)
}

// ackTestApp wires a reliable spout through chain bolts into a sink on one
// topology with one acker.
func ackTestApp(t *testing.T, ledger *ackLedger, limit int, mid func() engine.Bolt, maxPending int) (*engine.App, *cluster.Cluster, *cluster.Assignment) {
	t.Helper()
	b := topology.NewBuilder("rel", 2)
	b.SetAckers(1)
	b.Spout("s", 1).Output("", "seq")
	b.Bolt("mid", 1).Shuffle("s").Output("", "seq")
	b.Bolt("sink", 2).Shuffle("mid")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	app := &engine.App{
		Topology:      top,
		Spouts:        map[string]func() engine.Spout{"s": func() engine.Spout { return &reliableSpout{ledger: ledger, limit: limit} }},
		Bolts:         map[string]func() engine.Bolt{"mid": mid, "sink": func() engine.Bolt { return devnullBolt{} }},
		SpoutInterval: map[string]time.Duration{"s": time.Millisecond},
	}
	if maxPending > 0 {
		app.MaxPending = map[string]int{"s": maxPending}
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
	// Put the sink cross-node so acks traverse a serialized boundary too.
	initial.Assign(topology.ExecutorID{Topology: "rel", Component: "sink", Index: 1}, n2)
	return app, cl, initial
}

// TestAnchoredAckingEndToEnd runs a three-stage anchored topology to
// completion: every root acked exactly once, zero failures, zero pending,
// and the completion-latency histogram saw every root.
func TestAnchoredAckingEndToEnd(t *testing.T) {
	const n = 300
	ledger := newAckLedger()
	app, cl, initial := ackTestApp(t, ledger, n,
		func() engine.Bolt { return devnullBolt{} }, 0)

	cfg := testConfig()
	cfg.AckTimeout = 2 * time.Second
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

	waitFor(t, 10*time.Second, "all roots acked", func() bool {
		return ledger.ackedCount() >= n
	})
	waitFor(t, 5*time.Second, "pending roots drained", func() bool {
		return eng.PendingRoots() == 0
	})
	eng.HaltSpouts()
	eng.Stop()

	lost, dup := ledger.lost(n)
	if len(lost) != 0 {
		t.Errorf("lost roots: %v", lost)
	}
	if len(dup) != 0 {
		t.Errorf("roots acked more than once without replays: %v", dup)
	}
	tot := eng.Totals()
	if tot.Acked != n {
		t.Errorf("Acked = %d, want %d", tot.Acked, n)
	}
	if tot.FailedRoots != 0 || tot.Replayed != 0 {
		t.Errorf("failed/replayed = %d/%d, want 0/0", tot.FailedRoots, tot.Replayed)
	}
	if c := eng.CompletionLatencySnapshot().Count(); c != n {
		t.Errorf("completion-latency samples = %d, want %d", c, n)
	}
}

// TestAckWakesSleepingSpout gives the spout an idle sleep no test outlasts:
// after its one root it finds nothing to emit and goes to sleep, so the
// user's Ack can only run if the completion itself wakes the spout. A
// spout that found its completions by timer alone took them up a sleep
// late — by however long the runtime stretched that sleep.
func TestAckWakesSleepingSpout(t *testing.T) {
	ledger := newAckLedger()
	app, cl, initial := ackTestApp(t, ledger, 1,
		func() engine.Bolt { return devnullBolt{} }, 0)
	app.SpoutInterval["s"] = time.Hour

	cfg := testConfig()
	cfg.AckTimeout = time.Hour
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

	waitFor(t, 10*time.Second, "the sleeping spout's Ack", func() bool {
		return ledger.ackedCount() == 1
	})
}

// TestAnchoredTimeoutReplay forces timeouts with a bolt that stalls past
// the ack timeout on first sight of each tuple: every root must fail once,
// replay, and complete — at-least-once with zero loss.
func TestAnchoredTimeoutReplay(t *testing.T) {
	const n = 20
	ledger := newAckLedger()
	app, cl, initial := ackTestApp(t, ledger, n,
		func() engine.Bolt { return &slowFirstBolt{seen: make(map[int64]bool), stall: 150 * time.Millisecond} }, 4)

	cfg := testConfig()
	cfg.AckTimeout = 50 * time.Millisecond
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

	waitFor(t, 30*time.Second, "all roots acked after replay", func() bool {
		return ledger.ackedCount() >= n
	})
	waitFor(t, 5*time.Second, "pending roots drained", func() bool {
		return eng.PendingRoots() == 0
	})
	eng.HaltSpouts()
	eng.Stop()

	lost, _ := ledger.lost(n)
	if len(lost) != 0 {
		t.Errorf("lost roots: %v", lost)
	}
	tot := eng.Totals()
	if tot.FailedRoots == 0 {
		t.Error("no roots failed despite stalling bolt — timeout wheel never fired")
	}
	if tot.Replayed == 0 {
		t.Error("no replays detected despite re-emitted msgIDs")
	}
	if tot.Acked < n {
		t.Errorf("Acked = %d, want >= %d", tot.Acked, n)
	}
}

// TestMaxPendingBackpressure runs with a tiny max-pending against a slow
// sink and samples the in-flight gauge: it must never exceed the cap.
func TestMaxPendingBackpressure(t *testing.T) {
	const n, maxPending = 100, 3
	ledger := newAckLedger()
	app, cl, initial := ackTestApp(t, ledger, n,
		func() engine.Bolt { return &sleepBolt{d: 2 * time.Millisecond} }, maxPending)

	cfg := testConfig()
	cfg.AckTimeout = 5 * time.Second
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

	peak := int64(0)
	waitFor(t, 30*time.Second, "all roots acked", func() bool {
		if p := eng.PendingRoots(); p > peak {
			peak = p
		}
		return ledger.ackedCount() >= n
	})
	eng.HaltSpouts()
	eng.Stop()

	if peak > maxPending {
		t.Errorf("pending roots peaked at %d, above MaxPending %d", peak, maxPending)
	}
	if tot := eng.Totals(); tot.Acked != n {
		t.Errorf("Acked = %d, want %d", tot.Acked, n)
	}
}

// sleepBolt delays each tuple a fixed time before forwarding.
type sleepBolt struct{ d time.Duration }

func (b *sleepBolt) Prepare(*engine.Context) {}
func (b *sleepBolt) Execute(tp tuple.Tuple, em engine.Emitter) {
	time.Sleep(b.d)
	em.Emit("", tp.Values)
}

// TestUnanchoredSkipsAckers checks a topology without ackers still acks
// EmitWithID immediately and tracks nothing.
func TestUnanchoredSkipsAckers(t *testing.T) {
	b := topology.NewBuilder("noack", 1)
	b.Spout("s", 1).Output("", "v")
	b.Bolt("sink", 1).Shuffle("s")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	acked := new(atomic.Int64)
	app := &engine.App{
		Topology:      top,
		Spouts:        map[string]func() engine.Spout{"s": func() engine.Spout { return &tickSpout{acked: acked} }},
		Bolts:         map[string]func() engine.Bolt{"sink": func() engine.Bolt { return devnullBolt{} }},
		SpoutInterval: map[string]time.Duration{"s": time.Millisecond},
	}
	cl, err := cluster.Uniform(1, 2, 2000, 1)
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

	waitFor(t, 5*time.Second, "immediate acks", func() bool { return acked.Load() > 50 })
	eng.Stop()
	if p := eng.PendingRoots(); p != 0 {
		t.Errorf("unanchored run tracked %d pending roots, want 0", p)
	}
	if tot := eng.Totals(); tot.Acked != 0 {
		t.Errorf("unanchored run counted %d anchored acks, want 0", tot.Acked)
	}
}
