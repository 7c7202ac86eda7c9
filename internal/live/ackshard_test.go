package live

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/engine"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

// fanoutBolt re-emits each input k times (anchored), so one root fans to
// k sink tuples — the sink then acks k same-root tuples per batch, which
// is exactly the shape sender-side XOR combining folds.
type fanoutBolt struct{ k int }

func (fanoutBolt) Prepare(*engine.Context) {}
func (b fanoutBolt) Execute(tup tuple.Tuple, em engine.Emitter) {
	for i := 0; i < b.k; i++ {
		em.Emit("", tuple.Values{tup.Values[0]})
	}
}

// startShardedChaos is startChaos's sibling with the acker parallelism
// cranked to two and both acker shards isolated on their own slot, so a
// test can kill exactly (and only) the acker tasks mid-stream.
type shardedChaosHarness struct {
	eng      *Engine
	ledger   *chaosLedger
	sup      *Supervisor
	slotAck  cluster.SlotID
	ackExecs []topology.ExecutorID
}

func startShardedChaos(t *testing.T, limit int, ackTimeout time.Duration) *shardedChaosHarness {
	t.Helper()
	b := topology.NewBuilder("chaos-shard", 2)
	b.SetAckers(2)
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
		Bolts:         map[string]func() engine.Bolt{"mid": func() engine.Bolt { return fanoutBolt{k: 4} }, "sink": func() engine.Bolt { return devnullBolt{} }},
		SpoutInterval: map[string]time.Duration{"s": time.Millisecond},
		MaxPending:    map[string]int{"s": 32},
	}
	cl, err := cluster.Uniform(3, 4, 2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	slotSpout := cluster.SlotID{Node: "node01", Port: cluster.BasePort}
	slotMid := cluster.SlotID{Node: "node02", Port: cluster.BasePort}
	slotAck := cluster.SlotID{Node: "node03", Port: cluster.BasePort}
	initial := cluster.NewAssignment(0)
	var ackExecs []topology.ExecutorID
	for _, e := range top.Executors() {
		switch e.Component {
		case "mid":
			initial.Assign(e, slotMid)
		case topology.AckerComponent:
			initial.Assign(e, slotAck)
			ackExecs = append(ackExecs, e)
		default:
			initial.Assign(e, slotSpout)
		}
	}
	if len(ackExecs) != 2 {
		t.Fatalf("topology has %d acker executors, want 2", len(ackExecs))
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
	return &shardedChaosHarness{eng: eng, ledger: ledger, sup: sup, slotAck: slotAck, ackExecs: ackExecs}
}

// TestChaosCrashAckerShard kills both acker shards mid-stream. Every
// partial XOR those shards held dies with them, so the affected roots can
// only come back through the spout's timeout wheel — the test asserts the
// wheel recovers every root (nothing lost, nothing stuck) and that the
// in-flight gauge drains exactly to zero (a double-completion would drive
// it negative and trip the conservation wait).
func TestChaosCrashAckerShard(t *testing.T) {
	h := startShardedChaos(t, 400, 60*time.Millisecond)
	waitFor(t, 10*time.Second, "steady-state acks", func() bool {
		return h.ledger.ackedCount() > 50
	})

	// Both shards must be carrying traffic before the crash: roots hash
	// root&1 across the two ackers, so each should have processed acks.
	processed := map[topology.ExecutorID]int64{}
	for _, st := range h.eng.ExecutorStats() {
		processed[st.ID] = st.Processed
	}
	for _, e := range h.ackExecs {
		if got := processed[e]; got == 0 {
			t.Fatalf("acker shard %v processed no acks before crash", e)
		}
	}

	if killed := h.eng.CrashWorker(h.slotAck); killed != 2 {
		t.Fatalf("CrashWorker killed %d executors, want the 2 acker shards", killed)
	}

	waitFor(t, 15*time.Second, "every root acked after shard crash", func() bool {
		return h.ledger.ackedCount() >= h.ledger.limit
	})
	waitFor(t, 5*time.Second, "pending roots drained", func() bool {
		return h.eng.PendingRoots() == 0
	})
	if lost := h.ledger.lost(); len(lost) != 0 {
		t.Fatalf("lost roots after acker shard crash: %v", lost)
	}
	if pr := h.eng.PendingRoots(); pr != 0 {
		t.Fatalf("PendingRoots = %d after drain, want 0 (negative means double-ack)", pr)
	}

	tot := h.eng.Totals()
	if tot.WorkerCrashes < 2 {
		t.Errorf("WorkerCrashes = %d, want >= 2", tot.WorkerCrashes)
	}
	if tot.WorkerRestarts < 2 {
		t.Errorf("WorkerRestarts = %d, want >= 2", tot.WorkerRestarts)
	}
	if tot.CtlCombined == 0 {
		t.Error("CtlCombined = 0: sender-side ack combining never fired")
	}
}

// retainBolt keeps a reference to every tuple it receives — values and
// all — long after Execute returns, exactly what the pool ownership
// contract must make safe: batches and encode buffers recycle behind the
// receiver, so nothing a bolt was handed may ever alias pooled memory.
type retainBolt struct {
	mu   *sync.Mutex
	kept *[]tuple.Values
}

func (b *retainBolt) Prepare(*engine.Context) {}
func (b *retainBolt) Execute(tup tuple.Tuple, _ engine.Emitter) {
	b.mu.Lock()
	*b.kept = append(*b.kept, tup.Values)
	b.mu.Unlock()
}

// TestPoolRecycleNoAliasing hammers tuples across an inter-node boundary
// (so encode buffers and message batches churn through the pools) into a
// bolt that retains every Values slice it sees. After the run it checks
// each retained tuple still carries its original payload: if a recycled
// batch or codec buffer aliased a live tuple, the contents would have
// been cleared or overwritten by later traffic (and -race would flag the
// concurrent write).
func TestPoolRecycleNoAliasing(t *testing.T) {
	const n = 50000
	b := topology.NewBuilder("pool-alias", 2)
	b.Spout("s", 1).Output("", "seq", "payload")
	b.Bolt("keep", 1).Shuffle("s")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var kept []tuple.Values
	app := &engine.App{
		Topology: top,
		Spouts: map[string]func() engine.Spout{"s": func() engine.Spout {
			return &seqPayloadSpout{limit: n}
		}},
		Bolts: map[string]func() engine.Bolt{"keep": func() engine.Bolt {
			return &retainBolt{mu: &mu, kept: &kept}
		}},
	}
	cl, err := cluster.Uniform(2, 2, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Spout on node01, bolt on node02: every hop serializes.
	initial := cluster.NewAssignment(0)
	for _, e := range top.Executors() {
		if e.Component == "s" {
			initial.Assign(e, cluster.SlotID{Node: "node01", Port: cluster.BasePort})
		} else {
			initial.Assign(e, cluster.SlotID{Node: "node02", Port: cluster.BasePort})
		}
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

	waitFor(t, 20*time.Second, "all payloads delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(kept) >= n
	})
	eng.Stop()

	// Pools must have actually recycled for the test to mean anything.
	if hits := eng.Totals().PoolHits; hits == 0 {
		t.Fatal("pool hits = 0: nothing was recycled, test exercised nothing")
	}

	mu.Lock()
	defer mu.Unlock()
	seen := make(map[int64]bool, n)
	for i, vals := range kept {
		if len(vals) != 2 {
			t.Fatalf("kept[%d] has %d values, want 2 (recycled batch clobbered it?)", i, len(vals))
		}
		seq, ok := vals[0].(int64)
		if !ok {
			t.Fatalf("kept[%d][0] = %T, want int64", i, vals[0])
		}
		want := fmt.Sprintf("payload-%d", seq)
		if got, _ := vals[1].(string); got != want {
			t.Fatalf("kept[%d] payload = %q, want %q: pooled memory aliased a live tuple", i, vals[1], want)
		}
		seen[seq] = true
	}
	if len(seen) != n {
		t.Fatalf("saw %d distinct sequences, want %d", len(seen), n)
	}
}

// seqPayloadSpout emits (seq, "payload-<seq>") pairs up to limit, then
// idles.
type seqPayloadSpout struct {
	limit int
	seq   int
}

func (s *seqPayloadSpout) Open(*engine.Context) {}
func (s *seqPayloadSpout) NextTuple(em engine.SpoutEmitter) {
	if s.seq >= s.limit {
		return
	}
	em.Emit("", tuple.Values{int64(s.seq), fmt.Sprintf("payload-%d", s.seq)})
	s.seq++
}
func (s *seqPayloadSpout) Ack(any)  {}
func (s *seqPayloadSpout) Fail(any) {}
