package workloads

import (
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/docstore"
	"tstorm/internal/engine"
	"tstorm/internal/redisq"
	"tstorm/internal/textdata"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

func runOn(t *testing.T, app *engine.App, nodes int, d time.Duration) *engine.Runtime {
	t.Helper()
	cl, err := cluster.Uniform(nodes, 4, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := engine.NewRuntime(engine.DefaultConfig(), cl)
	if err != nil {
		t.Fatal(err)
	}
	// Pack everything on a small set of slots, round-robin per node.
	a := cluster.NewAssignment(0)
	slots := cl.Slots()
	var perNode []cluster.SlotID
	for _, s := range slots {
		if s.Port == cluster.BasePort {
			perNode = append(perNode, s)
		}
	}
	for i, e := range app.Topology.Executors() {
		a.Assign(e, perNode[i%len(perNode)])
	}
	if err := rt.Submit(app, a); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(d); err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestThroughputTestRuns(t *testing.T) {
	cfg := DefaultThroughputConfig()
	if cfg.Spouts != 5 || cfg.Identities != 15 || cfg.Counters != 15 ||
		cfg.Ackers != 10 || cfg.Workers != 40 {
		t.Fatalf("defaults drifted from the paper: %+v", cfg)
	}
	app, err := NewThroughputTest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := app.Topology.NumExecutors(); got != 45 {
		t.Fatalf("executors = %d, want 45", got)
	}
	rt := runOn(t, app, 10, 60*time.Second)
	tm := rt.Metrics("throughput")
	// 5 spouts at ~200/s for ~57s of effective time: thousands of roots.
	if tm.RootsEmitted < 10000 {
		t.Fatalf("roots = %d, want ≥ 10000", tm.RootsEmitted)
	}
	if tm.Completions == 0 || tm.Failed > tm.RootsEmitted/100 {
		t.Fatalf("completions=%d failed=%d", tm.Completions, tm.Failed)
	}
}

func TestThroughputConfigValidation(t *testing.T) {
	bad := DefaultThroughputConfig()
	bad.PayloadBytes = 0
	if _, err := NewThroughputTest(bad); err == nil {
		t.Fatal("zero payload accepted")
	}
}

func TestThroughputSpoutReplays(t *testing.T) {
	s := &throughputSpout{payload: "x"}
	s.Open(nil)
	em := &captureEmitter{}
	s.NextTuple(em)
	if len(em.ids) != 1 {
		t.Fatal("no emit")
	}
	id := em.ids[0]
	s.Fail(id)
	s.NextTuple(em)
	if len(em.ids) != 2 || em.ids[1] != id {
		t.Fatalf("replay did not re-emit %v: %v", id, em.ids)
	}
	s.Ack(id)
	s.Fail(id) // acked: must not replay
	s.NextTuple(em)
	if len(em.ids) != 3 || em.ids[2] == id {
		t.Fatalf("acked tuple replayed: %v", em.ids)
	}
}

// captureEmitter records EmitWithID calls.
type captureEmitter struct {
	ids []any
}

func (c *captureEmitter) Emit(string, tuple.Values)                    {}
func (c *captureEmitter) EmitDirect(string, int, string, tuple.Values) {}
func (c *captureEmitter) EmitWithID(_ string, _ tuple.Values, msgID any) {
	c.ids = append(c.ids, msgID)
}

func TestChainTopologyShape(t *testing.T) {
	cfg := DefaultChainConfig()
	app, err := NewChain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1 spout + 4 bolts + 5 ackers = 10 executors.
	if got := app.Topology.NumExecutors(); got != 10 {
		t.Fatalf("executors = %d, want 10", got)
	}
	if _, ok := app.Topology.Component("bolt4"); !ok {
		t.Fatal("bolt4 missing")
	}
	if _, err := NewChain(ChainConfig{Bolts: 0}); err == nil {
		t.Fatal("zero bolts accepted")
	}
	rt := runOn(t, app, 1, 30*time.Second)
	tm := rt.Metrics("chain")
	if tm.Completions == 0 || tm.Failed != 0 {
		t.Fatalf("completions=%d failed=%d", tm.Completions, tm.Failed)
	}
}

func TestWordCountEndToEnd(t *testing.T) {
	queue := redisq.NewServer()
	sink := docstore.NewStore()
	cfg := DefaultWordCountConfig()
	cfg.Queue, cfg.Sink = queue, sink
	app, err := NewWordCount(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := cluster.Uniform(10, 4, 2000, 4)
	rt, err := engine.NewRuntime(engine.DefaultConfig(), cl)
	if err != nil {
		t.Fatal(err)
	}
	a := cluster.NewAssignment(0)
	var perNode []cluster.SlotID
	for _, s := range cl.Slots() {
		if s.Port == cluster.BasePort {
			perNode = append(perNode, s)
		}
	}
	for i, e := range app.Topology.Executors() {
		a.Assign(e, perNode[i%len(perNode)])
	}
	if err := rt.Submit(app, a); err != nil {
		t.Fatal(err)
	}
	stop := StartCorpusFeeder(rt.Sim(), queue, cfg.QueueKey, 50)
	defer stop()
	if err := rt.RunFor(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	tm := rt.Metrics("wordcount")
	if tm.Completions == 0 {
		t.Fatal("no lines completed")
	}
	// The sink must hold real word counts from the corpus.
	counts := sink.Counters("words")
	if counts["the"] == 0 || counts["alice"] == 0 {
		t.Fatalf("sink missing corpus words: the=%d alice=%d (vocab %d)",
			counts["the"], counts["alice"], len(counts))
	}
	// Conservation: total counted words = words in the lines processed.
	var totalSunk int64
	for _, c := range counts {
		totalSunk += c
	}
	if totalSunk == 0 {
		t.Fatal("no words reached the sink")
	}
}

func TestWordCountValidation(t *testing.T) {
	cfg := DefaultWordCountConfig()
	if _, err := NewWordCount(cfg); err == nil {
		t.Fatal("missing queue/sink accepted")
	}
}

func TestReaderSpoutReplayAndEmptyQueue(t *testing.T) {
	queue := redisq.NewServer()
	s := &readerSpout{queue: queue, key: "q"}
	s.Open(nil)
	em := &captureEmitter{}
	s.NextTuple(em) // empty queue: nothing
	if len(em.ids) != 0 {
		t.Fatal("emitted from empty queue")
	}
	queue.RPush("q", textdata.Line(0))
	s.NextTuple(em)
	if len(em.ids) != 1 {
		t.Fatal("no emit after push")
	}
	s.Fail(em.ids[0])
	s.NextTuple(em)
	if len(em.ids) != 2 || em.ids[1] != em.ids[0] {
		t.Fatal("failed line not replayed")
	}
	s.Ack(em.ids[0])
	s.Fail(em.ids[0])
	s.NextTuple(em)
	if len(em.ids) != 2 {
		t.Fatal("acked line replayed")
	}
}

func TestLogStreamEndToEnd(t *testing.T) {
	queue := redisq.NewServer()
	sink := docstore.NewStore()
	cfg := DefaultLogStreamConfig()
	cfg.Queue, cfg.Sink = queue, sink
	app, err := NewLogStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 5+5+5+5+2+2+1 acker = 25 executors.
	if got := app.Topology.NumExecutors(); got != 25 {
		t.Fatalf("executors = %d, want 25", got)
	}
	cl, _ := cluster.Uniform(10, 4, 2000, 4)
	rt, err := engine.NewRuntime(engine.DefaultConfig(), cl)
	if err != nil {
		t.Fatal(err)
	}
	a := cluster.NewAssignment(0)
	var perNode []cluster.SlotID
	for _, s := range cl.Slots() {
		if s.Port == cluster.BasePort {
			perNode = append(perNode, s)
		}
	}
	for i, e := range app.Topology.Executors() {
		a.Assign(e, perNode[i%len(perNode)])
	}
	if err := rt.Submit(app, a); err != nil {
		t.Fatal(err)
	}
	stop := StartLogFeeder(rt.Sim(), queue, cfg.QueueKey, 7, 40)
	defer stop()
	if err := rt.RunFor(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	tm := rt.Metrics("logstream")
	if tm.Completions == 0 {
		t.Fatal("no log lines completed")
	}
	if sink.Count("index") == 0 {
		t.Fatal("indexer wrote nothing")
	}
	if len(sink.Counters("sources")) == 0 {
		t.Fatal("counter wrote nothing")
	}
}

func TestLogStreamValidation(t *testing.T) {
	if _, err := NewLogStream(DefaultLogStreamConfig()); err == nil {
		t.Fatal("missing queue/sink accepted")
	}
}

func TestFeedersZeroRateAreNoops(t *testing.T) {
	queue := redisq.NewServer()
	cl, _ := cluster.Uniform(1, 1, 1000, 1)
	rt, err := engine.NewRuntime(engine.DefaultConfig(), cl)
	if err != nil {
		t.Fatal(err)
	}
	StartCorpusFeeder(rt.Sim(), queue, "a", 0)()
	StartLogFeeder(rt.Sim(), queue, "b", 1, 0)()
	if err := rt.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	_, a := queue.LPop("a")
	_, b := queue.LPop("b")
	if a || b {
		t.Fatal("zero-rate feeder pushed data")
	}
}

// Sanity: all three workload topologies validate as engine apps.
func TestAppsValidate(t *testing.T) {
	queue := redisq.NewServer()
	sink := docstore.NewStore()
	tt, err := NewThroughputTest(DefaultThroughputConfig())
	if err != nil {
		t.Fatal(err)
	}
	wcCfg := DefaultWordCountConfig()
	wcCfg.Queue, wcCfg.Sink = queue, sink
	wc, err := NewWordCount(wcCfg)
	if err != nil {
		t.Fatal(err)
	}
	lsCfg := DefaultLogStreamConfig()
	lsCfg.Queue, lsCfg.Sink = queue, sink
	ls, err := NewLogStream(lsCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []*engine.App{tt, wc, ls} {
		if err := app.Validate(); err != nil {
			t.Errorf("%s: %v", app.Topology.Name(), err)
		}
	}
	// Acker counts per our calibration (documented in EXPERIMENTS.md).
	if tt.Topology.Ackers() != 10 || wc.Topology.Ackers() != 3 || ls.Topology.Ackers() != 1 {
		t.Fatalf("acker counts drifted: %d %d %d",
			tt.Topology.Ackers(), wc.Topology.Ackers(), ls.Topology.Ackers())
	}
	_ = topology.DefaultStream
}

// TestReliableCorpusSpoutRestart drives the reliable reader through a
// fail-replay cycle and a simulated worker restart, checking the shared
// ledger keeps at-least-once bookkeeping across incarnations.
func TestReliableCorpusSpoutRestart(t *testing.T) {
	cfg := DefaultSelfFedWordCountConfig()
	cfg.Sink = docstore.NewStore()
	cfg.Spouts = 1
	cfg.Limit = 3
	app, audit, err := NewReliableSelfFedWordCount(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if app.Topology.Ackers() == 0 {
		t.Fatal("reliable topology has no ackers")
	}
	if app.MaxPending["reader"] == 0 {
		t.Fatal("reliable reader has no max-pending cap")
	}
	ctx := &engine.Context{Topology: "wordcount-live", Index: 0, Parallelism: 1}

	s := app.Spouts["reader"]().(*reliableCorpusSpout)
	s.Open(ctx)
	em := &captureEmitter{}
	for i := 0; i < 4; i++ {
		s.NextTuple(em) // 4th call: limit reached, no emit
	}
	if len(em.ids) != 3 {
		t.Fatalf("emitted %d ids, want 3 (limit)", len(em.ids))
	}
	s.Ack(0)
	s.Fail(1)
	s.NextTuple(em)
	if len(em.ids) != 4 || em.ids[3] != 1 {
		t.Fatalf("failed line not replayed: %v", em.ids)
	}
	if got := audit.AckedLines(); got != 1 {
		t.Fatalf("AckedLines = %d, want 1", got)
	}
	if got := audit.OutstandingLines(); got != 2 {
		t.Fatalf("OutstandingLines = %d, want 2", got)
	}

	// The worker crashes: a fresh incarnation opens over the same ledger
	// and must re-issue both unacked lines, nothing else.
	s2 := app.Spouts["reader"]().(*reliableCorpusSpout)
	s2.Open(ctx)
	em2 := &captureEmitter{}
	for i := 0; i < 4; i++ {
		s2.NextTuple(em2)
	}
	if len(em2.ids) != 2 || em2.ids[0] != 1 || em2.ids[1] != 2 {
		t.Fatalf("restart re-issued %v, want [1 2]", em2.ids)
	}
	s2.Ack(1)
	s2.Ack(2)
	s2.Ack(2) // duplicate ack must not double-count
	if got := audit.AckedLines(); got != 3 {
		t.Fatalf("AckedLines = %d, want 3", got)
	}
	if got := audit.OutstandingLines(); got != 0 {
		t.Fatalf("OutstandingLines = %d, want 0", got)
	}
	if got := audit.Restarts(); got != 1 {
		t.Fatalf("Restarts = %d, want 1", got)
	}
}
