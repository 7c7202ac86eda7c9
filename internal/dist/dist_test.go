// Integration tests for the distributed runtime: every test here spawns
// real worker processes (this test binary, re-executed — see TestMain)
// that talk to the driver over loopback TCP. They live in an external
// test package so they can pull in internal/workloads, whose init
// registers the self-fed Word Count with the dist workload registry;
// the dist package itself must not import workloads.
package dist_test

import (
	"fmt"
	"os"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/core"
	"tstorm/internal/dist"
	"tstorm/internal/live"
	"tstorm/internal/loaddb"
	"tstorm/internal/topology"
	"tstorm/internal/workloads"
)

// TestMain routes re-executions of this binary into worker mode. Without
// this call first, a spawned worker would run the test suite instead of
// serving its slot.
func TestMain(m *testing.M) {
	dist.RunWorkerIfChild()
	os.Exit(m.Run())
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("timed out after %s waiting for %s", timeout, what)
}

// selfFedExecutors enumerates the executor IDs the self-fed Word Count
// topology will have under the given sizing (all fields must be set).
func selfFedExecutors(p workloads.SelfFedParams) []topology.ExecutorID {
	type comp struct {
		name string
		n    int
	}
	comps := []comp{
		{"reader", p.Spouts}, {"split", p.Splitters},
		{"count", p.Counters}, {"mongo", p.Mongos},
	}
	if p.Reliable {
		ackers := p.Ackers
		if ackers <= 0 {
			ackers = 1
		}
		comps = append(comps, comp{topology.AckerComponent, ackers})
	}
	var out []topology.ExecutorID
	for _, c := range comps {
		for i := 0; i < c.n; i++ {
			out = append(out, topology.ExecutorID{
				Topology: "wordcount-live", Component: c.name, Index: i,
			})
		}
	}
	return out
}

// placeByComponent assigns every executor of a component to one slot.
func placeByComponent(t *testing.T, p workloads.SelfFedParams, where map[string]cluster.SlotID) *cluster.Assignment {
	t.Helper()
	a := cluster.NewAssignment(0)
	for _, exec := range selfFedExecutors(p) {
		slot, ok := where[exec.Component]
		if !ok {
			t.Fatalf("no placement for component %q", exec.Component)
		}
		a.Assign(exec, slot)
	}
	return a
}

func slotOn(node string) cluster.SlotID {
	return cluster.SlotID{Node: cluster.NodeID(node), Port: cluster.BasePort}
}

// startFleet builds, submits, and starts a 3-node driver, failing the
// test on any error and wiring cleanup.
func startFleet(t *testing.T, cfg dist.Config, p workloads.SelfFedParams, initial *cluster.Assignment) *dist.Engine {
	t.Helper()
	e, err := dist.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(workloads.SelfFedWorkload, p, initial); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	return e
}

// TestDistributedWordCountSmoke is the basic three-process pipeline:
// reader, split, count, and mongo each pinned to a different worker
// process, so every hop but one crosses a process (and node) boundary
// over real TCP. The test asserts tuples actually flow end to end and
// that the fleet-wide counters see the inter-node traffic.
func TestDistributedWordCountSmoke(t *testing.T) {
	p := workloads.SelfFedParams{Spouts: 2, Splitters: 2, Counters: 2, Mongos: 1, Workers: 3}
	initial := placeByComponent(t, p, map[string]cluster.SlotID{
		"reader": slotOn("node01"),
		"split":  slotOn("node02"),
		"count":  slotOn("node03"),
		"mongo":  slotOn("node01"),
	})
	e := startFleet(t, dist.Config{Nodes: 3}, p, initial)

	ws := e.Workers()
	if len(ws) != 3 {
		t.Fatalf("got %d workers, want 3", len(ws))
	}
	self := os.Getpid()
	seen := map[int]bool{}
	for _, w := range ws {
		if !w.Alive {
			t.Fatalf("worker %s not alive after Start", w.Slot)
		}
		if w.PID == 0 || w.PID == self || seen[w.PID] {
			t.Fatalf("worker %s has bogus pid %d (driver pid %d)", w.Slot, w.PID, self)
		}
		seen[w.PID] = true
	}

	waitFor(t, 30*time.Second, "end-to-end flow through 3 processes", func() bool {
		tot := e.Totals()
		return tot.SinkProcessed > 2000 && tot.InterNodeSent > 1000
	})
	tot := e.Totals()
	if f := tot.InterNodeFraction(); f < 0.5 {
		t.Errorf("inter-node fraction = %.3f, want > 0.5 (every hop crosses processes)", f)
	}
	if tot.RootsEmitted == 0 || tot.Processed == 0 {
		t.Errorf("counters not aggregating: %+v", tot)
	}
	if got := len(e.Placement()); got != len(selfFedExecutors(p)) {
		t.Errorf("placement has %d entries, want %d", got, len(selfFedExecutors(p)))
	}
}

// TestDistributedKillWorkerRecovers kills -9 a bolt-hosting worker
// process mid-run and asserts the supervisor respawns it, the fleet
// recovers, and at-least-once delivery loses no lines: the reliable
// readers (pinned to a surviving worker — their replay ledger is
// process-local) replay everything the dead process had in flight, and
// the audit converges to exactly Spouts×Limit distinct acked lines with
// nothing outstanding.
func TestDistributedKillWorkerRecovers(t *testing.T) {
	// Long enough (a few hundred ms of work) that the kill lands mid-run:
	// since the coalesced wire hop a 1500-line corpus was done before it.
	p := workloads.SelfFedParams{
		Spouts: 1, Splitters: 2, Counters: 2, Mongos: 1, Workers: 3,
		Reliable: true, Ackers: 1, MaxPending: 64, Limit: 8000,
	}
	victim := slotOn("node02")
	initial := placeByComponent(t, p, map[string]cluster.SlotID{
		"reader":                slotOn("node01"),
		topology.AckerComponent: slotOn("node01"),
		"split":                 victim,
		"count":                 slotOn("node03"),
		"mongo":                 slotOn("node03"),
	})
	e := startFleet(t, dist.Config{
		Nodes:       3,
		AckTimeout:  2 * time.Second,
		BackoffBase: 50 * time.Millisecond,
	}, p, initial)

	want := p.Spouts * p.Limit
	waitFor(t, 30*time.Second, "initial progress", func() bool {
		acked, _, _ := e.Audit("wordcount-live")
		return acked > 100
	})

	if n := e.CrashWorker(victim); n != 1 {
		t.Fatalf("CrashWorker(%s) = %d, want 1", victim, n)
	}
	waitFor(t, 30*time.Second, "supervisor respawn", func() bool {
		// e.Restarts counts completed respawns; the handle's own counter
		// ticks when the death is noticed, while the dead incarnation's
		// session may still look attached.
		for _, w := range e.Workers() {
			if w.Slot == victim {
				return w.Alive && w.Restarts >= 1 && e.Restarts() >= 1
			}
		}
		return false
	})

	waitFor(t, 60*time.Second, "all lines acked after crash", func() bool {
		acked, outstanding, _ := e.Audit("wordcount-live")
		return acked == want && outstanding == 0
	})
	acked, outstanding, _ := e.Audit("wordcount-live")
	if acked != want || outstanding != 0 {
		t.Fatalf("audit = %d acked / %d outstanding, want exactly %d / 0 (lost or duplicated lines)",
			acked, outstanding, want)
	}
	tot := e.Totals()
	if tot.WorkerCrashes < 1 || tot.WorkerRestarts < 1 {
		t.Errorf("crash/restart counters = %d/%d, want >= 1/1", tot.WorkerCrashes, tot.WorkerRestarts)
	}
	if rec := e.History(); len(rec) == 0 || rec[0].Slot != victim {
		t.Errorf("restart history = %+v, want a record for %s", rec, victim)
	}
}

// TestDistributedKillCountsDroppedFrames: frames a worker could not get
// to a peer are counted in tuples, carried up on status messages and
// survive in Workers() — the counter that explains the replays an audit
// only shows the result of. The victim stays dead past the ack timeout, so the
// reader's replays are certain to be sent at a process that is not there.
func TestDistributedKillCountsDroppedFrames(t *testing.T) {
	p := workloads.SelfFedParams{
		Spouts: 1, Splitters: 2, Counters: 2, Mongos: 1, Workers: 3,
		Reliable: true, Ackers: 1, MaxPending: 64, Limit: 20000,
	}
	victim := slotOn("node02")
	initial := placeByComponent(t, p, map[string]cluster.SlotID{
		"reader":                slotOn("node01"),
		topology.AckerComponent: slotOn("node01"),
		"split":                 victim,
		"count":                 slotOn("node03"),
		"mongo":                 slotOn("node03"),
	})
	e := startFleet(t, dist.Config{
		Nodes:       3,
		AckTimeout:  time.Second,
		BackoffBase: 2500 * time.Millisecond,
	}, p, initial)
	waitFor(t, 30*time.Second, "initial progress", func() bool {
		acked, _, _ := e.Audit("wordcount-live")
		return acked > 100
	})
	if n := e.CrashWorker(victim); n != 1 {
		t.Fatalf("CrashWorker(%s) = %d, want 1", victim, n)
	}
	dropped := func() (sum int64) {
		for _, w := range e.Workers() {
			sum += w.DroppedTuples
		}
		return sum
	}
	waitFor(t, 30*time.Second, "a worker to report dropped frames", func() bool { return dropped() > 0 })
	want := p.Spouts * p.Limit
	waitFor(t, 60*time.Second, "all lines acked after crash", func() bool {
		acked, outstanding, _ := e.Audit("wordcount-live")
		return acked == want && outstanding == 0
	})
	if tot := e.Totals(); tot.Replayed == 0 {
		t.Errorf("%d frames dropped but no root replayed", dropped())
	}
}

// TestDistributedMigrationConservation moves executors between worker
// processes mid-run (§IV-D across process boundaries: halt, drain,
// publish through the coord store, fleet confirmation, resume) and
// asserts tuple conservation end to end: every line acked exactly once,
// none lost, none outstanding.
func TestDistributedMigrationConservation(t *testing.T) {
	p := workloads.SelfFedParams{
		Spouts: 1, Splitters: 2, Counters: 2, Mongos: 1, Workers: 3,
		Reliable: true, Ackers: 1, MaxPending: 64, Limit: 2000,
	}
	initial := placeByComponent(t, p, map[string]cluster.SlotID{
		"reader":                slotOn("node01"),
		topology.AckerComponent: slotOn("node01"),
		"split":                 slotOn("node02"),
		"count":                 slotOn("node02"),
		"mongo":                 slotOn("node03"),
	})
	e := startFleet(t, dist.Config{Nodes: 3, AckTimeout: 2 * time.Second}, p, initial)

	waitFor(t, 30*time.Second, "pre-migration progress", func() bool {
		acked, _, _ := e.Audit("wordcount-live")
		return acked > 200
	})

	// Move both count executors from node02's process to node03's.
	cur, ok := e.CurrentAssignment("wordcount-live")
	if !ok {
		t.Fatal("assignment missing")
	}
	next := cur.Clone()
	movedExecs := 0
	for exec, slot := range next.Executors {
		if exec.Component == "count" && slot == slotOn("node02") {
			next.Assign(exec, slotOn("node03"))
			movedExecs++
		}
	}
	if movedExecs != p.Counters {
		t.Fatalf("found %d count executors on node02, want %d", movedExecs, p.Counters)
	}
	moved, err := e.Apply("wordcount-live", next)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if moved != movedExecs {
		t.Fatalf("Apply moved %d executors, want %d", moved, movedExecs)
	}
	if g := e.Generation(); g != 2 {
		t.Errorf("generation = %d after one apply, want 2", g)
	}
	for _, pe := range e.Placement() {
		if pe.Executor.Component == "count" && pe.Slot != slotOn("node03") {
			t.Errorf("executor %s still on %s after migration", pe.Executor, pe.Slot)
		}
	}

	want := p.Spouts * p.Limit
	waitFor(t, 60*time.Second, "all lines acked across migration", func() bool {
		acked, outstanding, _ := e.Audit("wordcount-live")
		return acked == want && outstanding == 0
	})
	acked, outstanding, _ := e.Audit("wordcount-live")
	if acked != want || outstanding != 0 {
		t.Fatalf("audit = %d acked / %d outstanding, want exactly %d / 0 across the migration",
			acked, outstanding, want)
	}
	tot := e.Totals()
	if tot.Migrations != int64(movedExecs) || tot.Applies != 1 {
		t.Errorf("migrations/applies = %d/%d, want %d/1", tot.Migrations, tot.Applies, movedExecs)
	}
}

// TestDistributedRescheduleCutsInterNodeTraffic closes the tentpole
// loop: worker-side monitors ship real traffic windows over the control
// plane into the driver's load database, and the unchanged T-Storm
// generator (Algorithm 1) reschedules the fleet — cutting the measured
// inter-node (here: inter-process TCP) traffic of a deliberately bad
// placement.
func TestDistributedRescheduleCutsInterNodeTraffic(t *testing.T) {
	p := workloads.SelfFedParams{Spouts: 1, Splitters: 1, Counters: 1, Mongos: 1, Workers: 3}
	// Worst case: every hop in the chain crosses a process.
	initial := placeByComponent(t, p, map[string]cluster.SlotID{
		"reader": slotOn("node01"),
		"split":  slotOn("node02"),
		"count":  slotOn("node03"),
		"mongo":  slotOn("node01"),
	})
	e := startFleet(t, dist.Config{Nodes: 3, MonitorPeriod: 50 * time.Millisecond}, p, initial)

	db := loaddb.New(0.5)
	e.SetLoadSink(db)
	gen, err := live.StartGenerator(e, db, live.GeneratorConfig{
		Period:               time.Hour, // manual Reschedule only
		CapacityFraction:     0.9,
		ImprovementThreshold: 0.10,
	}, core.NewTrafficAware(1.0))
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Stop()

	waitFor(t, 30*time.Second, "measured traffic in the load db", func() bool {
		return db.HasData() && e.Totals().SinkProcessed > 2000
	})
	// Let the EWMA settle over a few windows so Algorithm 1 sees the real
	// flow ordering.
	time.Sleep(500 * time.Millisecond)
	before := e.Totals()
	if f := before.InterNodeFraction(); f < 0.5 {
		t.Fatalf("initial inter-node fraction = %.3f, want > 0.5 (bad placement)", f)
	}

	if !gen.Reschedule() {
		t.Fatal("forced reschedule applied nothing")
	}
	afterApply := e.Totals()
	waitFor(t, 30*time.Second, "post-migration traffic", func() bool {
		return e.Totals().SinkProcessed-afterApply.SinkProcessed > 2000
	})
	phase2 := e.Totals().Sub(afterApply)
	preF := before.InterNodeFraction()
	postF := phase2.InterNodeFraction()
	if postF >= preF {
		t.Errorf("reschedule did not cut inter-node traffic: %.3f -> %.3f", preF, postF)
	}
	t.Logf("inter-node fraction: %.3f before, %.3f after reschedule (gen %d)",
		preF, postF, e.Generation())
}

// TestDistributedBackoffIsExponential crashes one worker repeatedly and
// asserts the supervisor's respawn schedule actually doubles: each
// History record's imposed backoff must match Backoff(attempt-1), and
// the observed waits must be at least that long.
func TestDistributedBackoffIsExponential(t *testing.T) {
	p := workloads.SelfFedParams{Spouts: 1, Splitters: 1, Counters: 1, Mongos: 1, Workers: 1}
	all := slotOn("node01")
	victim := slotOn("node02")
	initial := placeByComponent(t, p, map[string]cluster.SlotID{
		"reader": all, "split": all, "count": all, "mongo": victim,
	})
	base := 80 * time.Millisecond
	e := startFleet(t, dist.Config{Nodes: 2, BackoffBase: base, BackoffCap: 2 * time.Second}, p, initial)

	const crashes = 3
	for i := 0; i < crashes; i++ {
		waitFor(t, 30*time.Second, fmt.Sprintf("victim alive before crash %d", i+1), func() bool {
			for _, w := range e.Workers() {
				if w.Slot == victim {
					return w.Alive && w.Restarts == i
				}
			}
			return false
		})
		if n := e.CrashWorker(victim); n != 1 {
			t.Fatalf("crash %d: CrashWorker = %d, want 1", i+1, n)
		}
		waitFor(t, 30*time.Second, fmt.Sprintf("respawn %d", i+1), func() bool {
			return len(e.History()) >= i+1
		})
	}

	hist := e.History()
	if len(hist) < crashes {
		t.Fatalf("history has %d records, want >= %d", len(hist), crashes)
	}
	for i, rec := range hist[:crashes] {
		wantBackoff := base << uint(i)
		if rec.Slot != victim {
			t.Errorf("record %d: slot %s, want %s", i, rec.Slot, victim)
		}
		if rec.Attempt != i+1 {
			t.Errorf("record %d: attempt %d, want %d", i, rec.Attempt, i+1)
		}
		if rec.Backoff != wantBackoff {
			t.Errorf("record %d: imposed backoff %s, want %s (exponential from %s)",
				i, rec.Backoff, wantBackoff, base)
		}
		if rec.Waited < rec.Backoff {
			t.Errorf("record %d: waited %s < imposed backoff %s", i, rec.Waited, rec.Backoff)
		}
		if rec.Backoff != e.Backoff(i) {
			t.Errorf("record %d: Backoff(%d) = %s disagrees with record %s", i, i, e.Backoff(i), rec.Backoff)
		}
	}
}
