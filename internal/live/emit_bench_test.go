package live

import (
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/engine"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

// benchEngine builds (without starting) a word-count-shaped topology whose
// split bolt fans out to counters on both nodes, so BenchmarkEmit exercises
// the local, inter-process and inter-node emission paths together.
func benchEngine(b *testing.B) (*Engine, *liveExec) {
	b.Helper()
	tb := topology.NewBuilder("bench", 2)
	tb.Spout("src", 1).Output("", "line")
	tb.Bolt("split", 1).Shuffle("src").Output("", "word")
	tb.Bolt("count", 4).Fields("split", "word")
	top, err := tb.Build()
	if err != nil {
		b.Fatal(err)
	}
	app := &engine.App{
		Topology: top,
		Spouts:   map[string]func() engine.Spout{"src": func() engine.Spout { return nil }},
		Bolts: map[string]func() engine.Bolt{
			"split": func() engine.Bolt { return nil },
			"count": func() engine.Bolt { return nil },
		},
	}
	cl, err := cluster.Uniform(2, 2, 2000, 2)
	if err != nil {
		b.Fatal(err)
	}
	initial := cluster.NewAssignment(0)
	slots := []cluster.SlotID{
		{Node: "node01", Port: cluster.BasePort},
		{Node: "node01", Port: cluster.BasePort + 1},
		{Node: "node02", Port: cluster.BasePort},
		{Node: "node02", Port: cluster.BasePort + 1},
	}
	i := 0
	for _, e := range top.Executors() {
		initial.Assign(e, slots[i%len(slots)])
		i++
	}
	cfg := testConfig()
	cfg.WireCost = -1 // isolate allocation cost from the emulated wire burn
	eng, err := NewEngine(cfg, cl)
	if err != nil {
		b.Fatal(err)
	}
	// Skip app.Validate (nil factories): wire the executors directly.
	eng.mu.Lock()
	eng.apps["bench"] = app
	eng.assign["bench"] = initial.Clone()
	for _, e := range top.Executors() {
		le := eng.newExec(app, e)
		eng.execs[e] = le
		s := initial.Executors[e]
		eng.placement[e] = s
		eng.groups[s] = append(eng.groups[s], le)
	}
	eng.rebuildRoutesLocked()
	eng.mu.Unlock()
	split := eng.execs[topology.ExecutorID{Topology: "bench", Component: "split", Index: 0}]
	return eng, split
}

// BenchmarkEmit measures allocations on the emit hot path: one op routes
// one anchored word tuple from the split bolt to its fields-grouped
// counters (local and remote hops alike), flushing the accumulated batch
// every 64 tuples the way the executor loop does. ci.sh gates on its
// allocs/op.
func BenchmarkEmit(b *testing.B) {
	eng, split := benchEngine(b)
	words := []tuple.Values{
		{"alpha", 1}, {"beta", 2}, {"gamma", 3}, {"delta", 4},
	}
	bornAt := time.Now()
	em := boltEmitter{le: split, bornAt: bornAt, root: 42}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		em.Emit("", words[i%len(words)])
		if (i+1)%64 == 0 {
			// Recycle the way flushBolt's drop path does, so the pools
			// cycle exactly as in production.
			for j := range em.deliveries {
				eng.recycleBatch(em.deliveries[j].msgs)
			}
			em.deliveries = em.deliveries[:0]
		}
	}
}

// BenchmarkEmitTraced is BenchmarkEmit with tuple tracing enabled at the
// default 1/1024 sampling rate and an UNSAMPLED root (42 & 1023 != 0):
// the tracing branch is taken and rejected on every hop, which must cost
// one mask check and zero allocations. ci.sh gates every BenchmarkEmit*
// line at ≤1 alloc/op, so a regression that makes unsampled tuples pay
// for the sampled path fails CI.
func BenchmarkEmitTraced(b *testing.B) {
	eng, split := benchEngine(b)
	if err := eng.SetTraceSampling(1024); err != nil {
		b.Fatal(err)
	}
	if eng.sampledRoot(42) {
		b.Fatal("root 42 unexpectedly sampled at rate 1024")
	}
	words := []tuple.Values{
		{"alpha", 1}, {"beta", 2}, {"gamma", 3}, {"delta", 4},
	}
	bornAt := time.Now()
	em := boltEmitter{le: split, bornAt: bornAt, root: 42}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		em.Emit("", words[i%len(words)])
		if (i+1)%64 == 0 {
			for j := range em.deliveries {
				eng.recycleBatch(em.deliveries[j].msgs)
			}
			em.deliveries = em.deliveries[:0]
		}
	}
}

// BenchmarkPoolRoundTrip is one steady-state get/put pair of a batch
// pool: it must allocate nothing (the slice's holder is recycled with it).
// ci.sh gates it at 0 allocs/op.
func BenchmarkPoolRoundTrip(b *testing.B) {
	var p batchPool[liveMsg]
	p.put(p.get())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := p.get()
		s = append(s, liveMsg{from: i})
		p.put(s)
	}
}
