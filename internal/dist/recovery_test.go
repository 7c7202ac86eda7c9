package dist_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/dist"
	"tstorm/internal/logx"
	"tstorm/internal/topology"
	"tstorm/internal/trace"
	"tstorm/internal/workloads"
)

// Recovery after a kill -9, read from the driver's trace rather than
// from sleeps: kill → death detected → respawned → rejoined (peers route
// to the new process, spouts told to replay) → first replay reported →
// rate regained. recoveryWindow is the rate window, as in bench/'s
// dist-wire check; recoveryAckTimeout is that workload's ack timeout.
const (
	recoveryWindow     = 250 * time.Millisecond
	recoveryAckTimeout = 2 * time.Second
)

// TestDistributedKillRecoveryTimeline kills -9 a bolt-hosting worker of
// a saturated at-least-once Word Count and checks the recovery bound of
// DESIGN §6: the replay starts before any ack timeout could fire, and the
// fleet runs again — a rate window at half its pre-kill rate — within
// detection + respawn + one ack timeout + one rate window. In the "all"
// runs (three seeds; `go test -count=N` repeats them for a soak) every
// line's tree passes through the victim, which hosts split and count; in
// the "half" run it hosts one of two splitters fed by a remote reader, so
// about half the outstanding roots die with it, and the replay request,
// which fails every outstanding root, also fails live ones. Each run logs
// its timeline, with when the rate regained 90 % of the pre-kill rate,
// bench/'s dist-wire criterion (a shared box moves a fleet's rate by
// ±15 % for seconds at a time, so the test does not hold it to that), and
// the roots the kill cost: failed, of those completed late anyway (the
// live ones), and replayed.
func TestDistributedKillRecoveryTimeline(t *testing.T) {
	home, victim, third := slotOn("node01"), slotOn("node02"), slotOn("node03")
	all := func(e topology.ExecutorID) cluster.SlotID {
		if e.Component == "split" || e.Component == "count" {
			return victim
		}
		return home
	}
	half := func(e topology.ExecutorID) cluster.SlotID {
		switch {
		case e.Component == "split" && e.Index == 0:
			return victim
		case e.Component == "split" || e.Component == "count":
			return third
		}
		return home
	}
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("all/seed=%d", seed), func(t *testing.T) { killAndRecover(t, seed, victim, all) })
	}
	t.Run("half/seed=1", func(t *testing.T) { killAndRecover(t, 1, victim, half) })
}

// killAndRecover runs the fleet with each executor on place's slot, kills
// victim's worker and reads the recovery.
func killAndRecover(t *testing.T, seed uint64, victim cluster.SlotID, place func(topology.ExecutorID) cluster.SlotID) {
	// The readers' pending caps fill with the roots the victim held when
	// it died.
	p := workloads.SelfFedParams{
		Spouts: 2, Splitters: 2, Counters: 2, Mongos: 1, Workers: 3,
		Reliable: true, Ackers: 1, MaxPending: 1024,
	}
	initial := cluster.NewAssignment(0)
	for _, exec := range selfFedExecutors(p) {
		initial.Assign(exec, place(exec))
	}
	rec := trace.NewRecorder(4096)
	e := startFleet(t, dist.Config{
		Nodes:       3,
		Seed:        seed,
		AckTimeout:  recoveryAckTimeout,
		BackoffBase: 50 * time.Millisecond,
		Trace:       rec,
		Log:         logx.New(io.Discard, logx.Off),
	}, p, initial)
	waitFor(t, 30*time.Second, "initial progress", func() bool {
		acked, _, _ := e.Audit("wordcount-live")
		return acked > 2000
	})

	// processed samples the fleet's bolt-processed count.
	type sample struct {
		at time.Time
		n  int64
	}
	processed := func() sample { return sample{time.Now(), e.Totals().Processed} }
	tick := time.NewTicker(recoveryWindow / 5)
	defer tick.Stop()
	first := processed()
	var last sample
	for last = first; last.at.Sub(first.at) < 4*recoveryWindow; last = processed() {
		<-tick.C
	}
	base := float64(last.n-first.n) / last.at.Sub(first.at).Seconds()
	before := e.Totals()

	// The supervisor can see the death, and trace it, before CrashWorker
	// traces the kill, so the timeline starts at the call.
	killed := time.Now()
	if n := e.CrashWorker(victim); n != 1 {
		t.Fatalf("CrashWorker(%s) = %d, want 1", victim, n)
	}
	// The fleet runs again, and has regained its rate, at the end of the
	// first window of at least recoveryWindow that ran at half, and at
	// 90 %, of base.
	var running, regained time.Time
	var hist []sample
	for start := time.Now(); regained.IsZero() && time.Since(start) < 3*recoveryAckTimeout; {
		<-tick.C
		s := processed()
		hist = append(hist, s)
		for i := len(hist) - 2; i >= 0; i-- {
			if d := s.at.Sub(hist[i].at); d >= recoveryWindow {
				rate := float64(s.n-hist[i].n) / d.Seconds()
				if rate >= base/2 && running.IsZero() {
					running = s.at
				}
				if rate >= 0.9*base {
					regained = s.at
				}
				break
			}
		}
	}

	find := func(kind trace.Kind, where string, after time.Time) time.Time {
		for _, ev := range rec.Events() {
			if ev.Kind == kind && (where == "" || ev.Where == where) && !ev.Wall.Before(after) {
				return ev.Wall
			}
		}
		return time.Time{}
	}
	slot := victim.String()
	traced := find(trace.WorkerKilled, slot, killed)
	detected := find(trace.WorkerCrashed, slot, killed)
	respawned := find(trace.WorkerRestarted, slot, detected)
	rejoined := find(trace.WorkerRejoined, slot, respawned)
	replayed := find(trace.TupleReplayed, "", rejoined)
	since := func(at time.Time) string {
		if at.IsZero() {
			return "never"
		}
		return "+" + at.Sub(killed).Round(time.Millisecond).String()
	}
	after := e.Totals()
	t.Logf("timeline: detected %s, respawned %s, rejoined %s, first replay %s, running %s, rate regained %s (base %.0f tuples/s); roots failed %d, late-acked %d, replayed %d",
		since(detected), since(respawned), since(rejoined), since(replayed), since(running), since(regained), base,
		after.FailedRoots-before.FailedRoots, after.LateAcked-before.LateAcked, after.Replayed-before.Replayed)
	for _, ev := range []struct {
		name string
		at   time.Time
	}{{"kill", traced}, {"death detected", detected}, {"respawn", respawned}, {"rejoin", rejoined}, {"first replay", replayed}} {
		if ev.at.IsZero() {
			t.Fatalf("no %s event in the trace after the previous step", ev.name)
		}
	}
	if d := replayed.Sub(killed); d >= recoveryAckTimeout {
		t.Errorf("first replay %s after the kill: the spouts waited out the %s ack timeout", d, recoveryAckTimeout)
	}
	if bound := rejoined.Sub(killed) + recoveryAckTimeout + recoveryWindow; running.IsZero() || running.Sub(killed) > bound {
		t.Errorf("fleet running again %s, past detection + respawn + ack timeout + window = %s after the kill",
			since(running), bound)
	}
}
