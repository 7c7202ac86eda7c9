package live

import (
	"sort"
	"sync"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/core"
	"tstorm/internal/engine"
	"tstorm/internal/loaddb"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

// chaosLedger is the restart-safe source of truth a chaosSpout works from:
// it survives crashes (the engine builds fresh spout instances around it)
// and records, per sequence number, whether the tuple was issued, acked,
// or needs a replay. It doubles as the conservation oracle: a run is clean
// when every sequence below limit acked at least once and nothing is in
// flight.
type chaosLedger struct {
	mu       sync.Mutex
	limit    int
	next     int
	inflight map[int]bool
	acked    map[int]int
	replays  []int
	opens    int
}

func newChaosLedger(limit int) *chaosLedger {
	return &chaosLedger{limit: limit, inflight: make(map[int]bool), acked: make(map[int]int)}
}

func (l *chaosLedger) ackedCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.acked)
}

func (l *chaosLedger) opensCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.opens
}

// lost lists sequences that never acked — must be empty after recovery.
func (l *chaosLedger) lost() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	var lost []int
	for s := 0; s < l.limit; s++ {
		if l.acked[s] == 0 {
			lost = append(lost, s)
		}
	}
	return lost
}

// chaosSpout replays the ledger: like a real reliable source (a queue, a
// log), a fresh incarnation re-issues everything issued-but-unacked, since
// the crashed incarnation's in-flight roots died with it.
type chaosSpout struct{ l *chaosLedger }

func (s *chaosSpout) Open(*engine.Context) {
	l := s.l
	l.mu.Lock()
	l.opens++
	if l.opens > 1 {
		l.replays = l.replays[:0]
		for seq := range l.inflight {
			l.replays = append(l.replays, seq)
		}
		sort.Ints(l.replays)
	}
	l.mu.Unlock()
}

func (s *chaosSpout) NextTuple(em engine.SpoutEmitter) {
	l := s.l
	l.mu.Lock()
	var seq int
	switch {
	case len(l.replays) > 0:
		seq = l.replays[0]
		l.replays = l.replays[1:]
	case l.next < l.limit:
		seq = l.next
		l.next++
	default:
		l.mu.Unlock()
		return
	}
	l.inflight[seq] = true
	l.mu.Unlock()
	em.EmitWithID("", tuple.Values{int64(seq)}, seq)
}

func (s *chaosSpout) Ack(id any) {
	seq := id.(int)
	s.l.mu.Lock()
	s.l.acked[seq]++
	delete(s.l.inflight, seq)
	s.l.mu.Unlock()
}

func (s *chaosSpout) Fail(id any) {
	seq := id.(int)
	s.l.mu.Lock()
	if s.l.inflight[seq] {
		s.l.replays = append(s.l.replays, seq)
	}
	s.l.mu.Unlock()
}

// chaosHarness is one running anchored topology with a known placement:
// spout + acker + sink on node01's first slot, the two mid bolts on
// node02's first slot — so crashing slotMid kills only bolts and crashing
// slotSpout kills the spout, acker and sink together.
type chaosHarness struct {
	eng       *Engine
	ledger    *chaosLedger
	sup       *Supervisor
	slotSpout cluster.SlotID
	slotMid   cluster.SlotID
	initial   *cluster.Assignment
	top       *topology.Topology
}

func startChaos(t *testing.T, limit int, ackTimeout time.Duration) *chaosHarness {
	t.Helper()
	b := topology.NewBuilder("chaos", 2)
	b.SetAckers(1)
	b.Spout("s", 1).Output("", "seq")
	b.Bolt("mid", 2).Shuffle("s").Output("", "seq")
	b.Bolt("sink", 1).Shuffle("mid")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ledger := newChaosLedger(limit)
	app := &engine.App{
		Topology:      top,
		Spouts:        map[string]func() engine.Spout{"s": func() engine.Spout { return &chaosSpout{l: ledger} }},
		Bolts:         map[string]func() engine.Bolt{"mid": func() engine.Bolt { return devnullBolt{} }, "sink": func() engine.Bolt { return devnullBolt{} }},
		SpoutInterval: map[string]time.Duration{"s": time.Millisecond},
		MaxPending:    map[string]int{"s": 32},
	}
	cl, err := cluster.Uniform(3, 4, 2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	slotSpout := cluster.SlotID{Node: "node01", Port: cluster.BasePort}
	slotMid := cluster.SlotID{Node: "node02", Port: cluster.BasePort}
	initial := cluster.NewAssignment(0)
	for _, e := range top.Executors() {
		if e.Component == "mid" {
			initial.Assign(e, slotMid)
		} else {
			initial.Assign(e, slotSpout)
		}
	}
	cfg := testConfig()
	cfg.AckTimeout = ackTimeout
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
	sup := StartSupervisor(eng, 5*time.Millisecond)
	t.Cleanup(func() {
		sup.Stop()
		eng.Stop()
	})
	return &chaosHarness{
		eng: eng, ledger: ledger, sup: sup,
		slotSpout: slotSpout, slotMid: slotMid, initial: initial, top: top,
	}
}

// assertConservation waits for every root to ack and the in-flight gauge
// to drain — the at-least-once contract after any amount of chaos.
func (h *chaosHarness) assertConservation(t *testing.T, within time.Duration) {
	t.Helper()
	waitFor(t, within, "every root acked", func() bool {
		return h.ledger.ackedCount() >= h.ledger.limit
	})
	waitFor(t, 5*time.Second, "pending roots drained", func() bool {
		return h.eng.PendingRoots() == 0
	})
	if lost := h.ledger.lost(); len(lost) != 0 {
		t.Fatalf("lost roots after recovery: %v", lost)
	}
}

// TestChaosCrashBoltWorkerSteadyState kills the bolt worker mid-run: the
// supervisor must restart it and the spout's timeout wheel must replay
// whatever died in flight — zero lost roots.
func TestChaosCrashBoltWorkerSteadyState(t *testing.T) {
	h := startChaos(t, 400, 60*time.Millisecond)
	waitFor(t, 10*time.Second, "steady-state acks", func() bool {
		return h.ledger.ackedCount() > 50
	})
	if killed := h.eng.CrashWorker(h.slotMid); killed != 2 {
		t.Fatalf("CrashWorker killed %d executors, want 2", killed)
	}
	h.assertConservation(t, 30*time.Second)

	tot := h.eng.Totals()
	if tot.WorkerCrashes < 2 {
		t.Errorf("WorkerCrashes = %d, want >= 2", tot.WorkerCrashes)
	}
	if tot.WorkerRestarts < 2 {
		t.Errorf("WorkerRestarts = %d, want >= 2", tot.WorkerRestarts)
	}
	if n := len(h.sup.History()); n < 2 {
		t.Errorf("supervisor restarts = %d, want >= 2", n)
	}
	// A second crash on the same (restarted) slot works too.
	if killed := h.eng.CrashWorker(h.slotMid); killed != 2 {
		t.Errorf("second CrashWorker killed %d executors, want 2", killed)
	}
}

// TestChaosSupervisorBackoffExponential crashes the same bolt worker
// repeatedly and asserts — from the supervisor's restart log, not just
// the restart count — that the imposed backoff genuinely doubles per
// consecutive restart and that the observed crash→restart wait honored
// it every time.
func TestChaosSupervisorBackoffExponential(t *testing.T) {
	h := startChaos(t, 6000, 60*time.Millisecond)
	waitFor(t, 10*time.Second, "steady-state acks", func() bool {
		return h.ledger.ackedCount() > 30
	})

	const rounds = 3
	for i := 0; i < rounds; i++ {
		if killed := h.eng.CrashWorker(h.slotMid); killed != 2 {
			t.Fatalf("round %d: CrashWorker killed %d executors, want 2", i+1, killed)
		}
		want := 2 * (i + 1)
		waitFor(t, 15*time.Second, "restarts after crash round", func() bool {
			return len(h.sup.History()) >= want
		})
	}

	perExec := map[topology.ExecutorID][]RestartRecord{}
	for _, rec := range h.sup.History() {
		perExec[rec.Executor] = append(perExec[rec.Executor], rec)
	}
	if len(perExec) != 2 {
		t.Fatalf("history covers %d executors, want the 2 mid bolts", len(perExec))
	}
	for exec, recs := range perExec {
		if len(recs) != rounds {
			t.Fatalf("%s has %d restart records, want %d", exec, len(recs), rounds)
		}
		for i, rec := range recs {
			if rec.Attempt != i+1 {
				t.Errorf("%s record %d: attempt %d, want %d", exec, i, rec.Attempt, i+1)
			}
			if want := Backoff(DefaultBackoffBase, DefaultBackoffCap, i); rec.Backoff != want {
				t.Errorf("%s attempt %d: imposed backoff %s, want %s", exec, i+1, rec.Backoff, want)
			}
			if i > 0 && rec.Backoff != 2*recs[i-1].Backoff {
				t.Errorf("%s attempt %d: backoff %s is not double the previous %s — schedule not exponential",
					exec, i+1, rec.Backoff, recs[i-1].Backoff)
			}
			if rec.Waited < rec.Backoff {
				t.Errorf("%s attempt %d: waited %s, less than the imposed backoff %s",
					exec, i+1, rec.Waited, rec.Backoff)
			}
		}
	}
}

// TestChaosCrashSpoutWorker kills the slot hosting the spout, acker and
// sink together: the fresh spout incarnation must re-issue everything the
// dead one had in flight (its wheel and the acker's tracking died too).
func TestChaosCrashSpoutWorker(t *testing.T) {
	h := startChaos(t, 300, 60*time.Millisecond)
	waitFor(t, 10*time.Second, "steady-state acks", func() bool {
		return h.ledger.ackedCount() > 30
	})
	if killed := h.eng.CrashWorker(h.slotSpout); killed != 3 {
		t.Fatalf("CrashWorker killed %d executors, want 3 (spout+acker+sink)", killed)
	}
	h.assertConservation(t, 30*time.Second)
	if opens := h.ledger.opensCount(); opens < 2 {
		t.Errorf("spout opened %d times, want >= 2 (restart)", opens)
	}
}

// TestChaosCrashDuringMigration races CrashWorker against Apply: executors
// are moved between slots while their goroutines are being killed and
// restarted. Conservation must hold regardless of interleaving.
func TestChaosCrashDuringMigration(t *testing.T) {
	h := startChaos(t, 400, 60*time.Millisecond)
	waitFor(t, 10*time.Second, "steady-state acks", func() bool {
		return h.ledger.ackedCount() > 30
	})

	slotAlt := cluster.SlotID{Node: "node03", Port: cluster.BasePort}
	moveMid := func(to cluster.SlotID, id int64) *cluster.Assignment {
		a := h.initial.Clone()
		a.ID = id
		for _, e := range h.top.Executors() {
			if e.Component == "mid" {
				a.Assign(e, to)
			}
		}
		return a
	}

	targets := []*cluster.Assignment{
		moveMid(slotAlt, 1), moveMid(h.slotMid, 2),
		moveMid(slotAlt, 3), moveMid(h.slotMid, 4),
	}
	for i, next := range targets {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, err := h.eng.Apply("chaos", next); err != nil {
				t.Errorf("Apply %d: %v", i, err)
			}
		}()
		// Crash whichever slot hosts the mid bolts while the migration is
		// in progress; either side of the hand-off may take the hit.
		time.Sleep(2 * time.Millisecond)
		h.eng.CrashWorker(h.slotMid)
		h.eng.CrashWorker(slotAlt)
		<-done
	}
	h.assertConservation(t, 30*time.Second)
}

// TestChaosNodeFailReschedule takes the bolt node down entirely: the
// supervisor must NOT restart in place (the node is fenced); instead the
// generator — whose input marks the node occupied — reschedules the
// orphans onto live nodes, and only then do they restart. Zero lost roots
// across the whole outage.
func TestChaosNodeFailReschedule(t *testing.T) {
	h := startChaos(t, 4000, 60*time.Millisecond)

	db := loaddb.New(0.5)
	mon := StartMonitor(h.eng, db, 20*time.Millisecond)
	defer mon.Stop()
	gen, err := StartGenerator(h.eng, db, GeneratorConfig{
		Period: time.Hour, CapacityFraction: 0.9, ImprovementThreshold: 0.1,
	}, core.NewTrafficAware(1.5))
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Stop()
	waitFor(t, 10*time.Second, "steady-state acks with load data", func() bool {
		return h.ledger.ackedCount() > 30 && db.HasData()
	})

	if !h.eng.FailNode("node02") {
		t.Fatal("FailNode(node02) reported no live node")
	}
	if !h.eng.NodeDown("node02") {
		t.Fatal("node02 not marked down")
	}
	if down := h.eng.DownNodes(); len(down) != 1 || down[0] != "node02" {
		t.Fatalf("DownNodes = %v, want [node02]", down)
	}

	// The supervisor must leave the orphans dead while their slot is on the
	// failed node: a forced reschedule (fencing node02) moves them, and
	// only then do restarts happen.
	if !gen.Reschedule() {
		t.Fatal("Reschedule applied nothing after node failure")
	}
	cur, ok := h.eng.CurrentAssignment("chaos")
	if !ok {
		t.Fatal("no current assignment")
	}
	for e, s := range cur.Executors {
		if s.Node == "node02" {
			t.Fatalf("executor %v still scheduled on the failed node", e)
		}
	}

	// Once moved off the dead node, the supervisor restarts the orphans
	// (after its backoff) and traffic resumes.
	waitFor(t, 10*time.Second, "mids restarted off-node", func() bool {
		return h.eng.Totals().WorkerRestarts >= 2
	})
	h.assertConservation(t, 30*time.Second)

	// Recovery makes the node schedulable again.
	if !h.eng.RecoverNode("node02") {
		t.Fatal("RecoverNode(node02) failed")
	}
	if h.eng.NodeDown("node02") {
		t.Fatal("node02 still down after recovery")
	}
}

// TestReliabilityParityShape runs the same anchored app shape on both
// backends in light load and in overload, and asserts the failed-tuple
// shape matches: zero failures when the sink keeps up, non-zero when it
// cannot (the Fig. 3 overload signature), on simulation and live alike.
func TestReliabilityParityShape(t *testing.T) {
	// --- Simulated backend ---
	simRun := func(overload bool) int64 {
		b := topology.NewBuilder("par", 1)
		b.SetAckers(1)
		b.Spout("s", 1).Output("", "seq")
		b.Bolt("sink", 1).Shuffle("s")
		top, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.Uniform(1, 4, 2000, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := engine.DefaultConfig()
		cfg.MessageTimeout = 2 * time.Second
		rt, err := engine.NewRuntime(cfg, cl)
		if err != nil {
			t.Fatal(err)
		}
		ledger := newChaosLedger(40)
		app := &engine.App{
			Topology: top,
			Spouts:   map[string]func() engine.Spout{"s": func() engine.Spout { return &chaosSpout{l: ledger} }},
			Bolts:    map[string]func() engine.Bolt{"sink": func() engine.Bolt { return devnullBolt{} }},
		}
		if overload {
			// 500 ms of CPU per tuple at 2 GHz: service rate far below the
			// spout's arrival rate, so roots time out.
			app.Costs = map[string]engine.CostFn{
				"sink": engine.ConstCost(engine.Cycles(500*time.Millisecond, 2000)),
			}
		}
		initial := cluster.NewAssignment(0)
		for _, e := range top.Executors() {
			initial.Assign(e, cluster.SlotID{Node: "node01", Port: cluster.BasePort})
		}
		if err := rt.Submit(app, initial); err != nil {
			t.Fatal(err)
		}
		if err := rt.RunFor(60 * time.Second); err != nil {
			t.Fatal(err)
		}
		return rt.Metrics("par").Failed
	}

	// --- Live backend ---
	liveRun := func(overload bool) int64 {
		b := topology.NewBuilder("par", 1)
		b.SetAckers(1)
		b.Spout("s", 1).Output("", "seq")
		b.Bolt("sink", 1).Shuffle("s")
		top, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.Uniform(1, 4, 2000, 1)
		if err != nil {
			t.Fatal(err)
		}
		ledger := newChaosLedger(40)
		mkSink := func() engine.Bolt { return devnullBolt{} }
		if overload {
			// Stall past the ack timeout on first sight: the root fails and
			// replays, exactly the sim's overload signature.
			mkSink = func() engine.Bolt {
				return &slowFirstBolt{seen: make(map[int64]bool), stall: 120 * time.Millisecond}
			}
		}
		app := &engine.App{
			Topology:      top,
			Spouts:        map[string]func() engine.Spout{"s": func() engine.Spout { return &chaosSpout{l: ledger} }},
			Bolts:         map[string]func() engine.Bolt{"sink": mkSink},
			SpoutInterval: map[string]time.Duration{"s": time.Millisecond},
			MaxPending:    map[string]int{"s": 4},
		}
		initial := cluster.NewAssignment(0)
		for _, e := range top.Executors() {
			initial.Assign(e, cluster.SlotID{Node: "node01", Port: cluster.BasePort})
		}
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
		waitFor(t, 30*time.Second, "parity run acked", func() bool {
			return ledger.ackedCount() >= ledger.limit
		})
		eng.Stop()
		return eng.Totals().FailedRoots
	}

	if failed := simRun(false); failed != 0 {
		t.Errorf("sim light load failed %d roots, want 0", failed)
	}
	if failed := simRun(true); failed == 0 {
		t.Error("sim overload failed 0 roots, want > 0")
	}
	if failed := liveRun(false); failed != 0 {
		t.Errorf("live light load failed %d roots, want 0", failed)
	}
	if failed := liveRun(true); failed == 0 {
		t.Error("live overload failed 0 roots, want > 0")
	}
}
