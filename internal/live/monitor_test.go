package live

import (
	"sync"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/engine"
	"tstorm/internal/loaddb"
	"tstorm/internal/topology"
)

// monitorFixture builds a submitted (but not started) engine: the monitor
// samples counters the test sets by hand, so rates are deterministic.
func monitorFixture(t *testing.T) (*Engine, topology.ExecutorID, topology.ExecutorID) {
	t.Helper()
	b := topology.NewBuilder("mon", 1)
	b.Spout("s", 1).Output("", "v")
	b.Bolt("b", 1).Shuffle("s")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	app := &engine.App{
		Topology: top,
		Spouts:   map[string]func() engine.Spout{"s": func() engine.Spout { return &idSpout{} }},
		Bolts:    map[string]func() engine.Bolt{"b": func() engine.Bolt { return devnullBolt{} }},
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
	src := topology.ExecutorID{Topology: "mon", Component: "s", Index: 0}
	dst := topology.ExecutorID{Topology: "mon", Component: "b", Index: 0}
	return eng, src, dst
}

// TestMonitorStopConcurrent is the regression test for the double-close
// race: two goroutines calling Stop simultaneously (plus a third call
// afterwards) must neither panic nor deadlock.
func TestMonitorStopConcurrent(t *testing.T) {
	eng, _, _ := monitorFixture(t)
	m := StartMonitor(eng, loaddb.New(0.5), time.Hour)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Stop()
		}()
	}
	wg.Wait()
	m.Stop() // repeated Stop stays a no-op
}

// TestMonitorSampleUsesElapsedTime asserts the rate-skew fix: an
// off-cycle manual Sample must divide drained counters by the wall-clock
// time actually elapsed, not by the configured period. The period here is
// an hour; dividing by it would shrink every rate by four to five orders
// of magnitude.
func TestMonitorSampleUsesElapsedTime(t *testing.T) {
	eng, src, dst := monitorFixture(t)
	db := loaddb.New(0.5)
	m := StartMonitor(eng, db, time.Hour)
	defer m.Stop()

	const elapsed = 100 * time.Millisecond
	time.Sleep(elapsed)
	srcExec := eng.execs[src]
	srcExec.cpuNanos.Store(int64(20 * time.Millisecond)) // ~20% busy
	eng.traffic.Add(srcExec.dense, eng.execs[dst].dense, 1000)
	m.Sample()

	// EWMA from zero with α=0.5 halves the instantaneous sample.
	// Elapsed-based: ~1000/0.1s/2 = ~5000 tuples/s (the sleep only ever
	// overshoots, so use generous lower bounds); period-based would be
	// 1000/3600/2 ≈ 0.14.
	if rate := snapTraffic(db, src, dst); rate < 500 {
		t.Errorf("flow rate = %.3f tuples/s, want elapsed-based (≫ 1); period-based division detected", rate)
	}
	// Elapsed-based load: 0.02s/0.1s × 2000 MHz / 2 = ~200 MHz.
	if load := snapLoad(db, src); load < 20 {
		t.Errorf("executor load = %.3f MHz, want elapsed-based (≫ 1); period-based division detected", load)
	}
}

// TestMonitorForgetRoundTrip asserts the monitor/DB.Forget interaction:
// after Forget, later samples must not resurrect the dead topology's keys
// through knownFlows zero-decay or load writes — the snapshot stays clean
// and HasData reports false.
func TestMonitorForgetRoundTrip(t *testing.T) {
	eng, src, dst := monitorFixture(t)
	db := loaddb.New(0.5)
	m := StartMonitor(eng, db, time.Hour)
	defer m.Stop()

	eng.traffic.Add(eng.execs[src].dense, eng.execs[dst].dense, 500)
	m.Sample()
	if !db.HasData() {
		t.Fatal("no data after first sample")
	}
	if len(db.Snapshot().Flows) == 0 {
		t.Fatal("no flows recorded")
	}

	m.Forget("mon")
	if db.HasData() {
		t.Fatal("HasData still true right after Forget")
	}

	// Two more rounds, one with fresh counter residue: nothing may come back.
	m.Sample()
	eng.execs[src].cpuNanos.Store(int64(time.Millisecond))
	eng.traffic.Add(eng.execs[src].dense, eng.execs[dst].dense, 50)
	m.Sample()
	if db.HasData() {
		t.Fatal("sampling after Forget resurrected database entries")
	}
	snap := db.Snapshot()
	if len(snap.ExecLoad) != 0 || len(snap.Flows) != 0 {
		t.Fatalf("snapshot not clean after Forget: %d loads, %d flows", len(snap.ExecLoad), len(snap.Flows))
	}
}

// snapLoad and snapTraffic read one estimate through a snapshot (0 when
// unknown).
func snapLoad(db *loaddb.DB, e topology.ExecutorID) float64 { return db.Snapshot().ExecLoad[e] }

func snapTraffic(db *loaddb.DB, from, to topology.ExecutorID) float64 {
	for _, f := range db.Snapshot().Flows {
		if f.From == from && f.To == to {
			return f.Rate
		}
	}
	return 0
}
