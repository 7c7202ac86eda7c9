package live_test

import (
	"strings"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/docstore"
	"tstorm/internal/live"
	"tstorm/internal/trace"
	"tstorm/internal/workloads"
)

// TestSaturatedWordCountApplyDrains re-places a closed-loop Word Count
// whose readers never idle, so its bolt queues sit at their bound. The
// queues are bounded in tuples, so the §IV-D drain empties them inside
// DrainTimeout instead of timing out and migrating them loaded. The
// measured Apply time is reported as live.apply_ms.
func TestSaturatedWordCountApplyDrains(t *testing.T) {
	cl, err := cluster.Uniform(4, 4, 2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workloads.DefaultSelfFedWordCountConfig()
	wcfg.Sink = docstore.NewStore()
	app, err := workloads.NewSelfFedWordCount(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	slots := cl.Slots()
	initial, next := cluster.NewAssignment(0), cluster.NewAssignment(1)
	for i, e := range app.Topology.Executors() {
		initial.Assign(e, slots[i%len(slots)])
		next.Assign(e, slots[(i+1)%len(slots)])
	}
	rec := trace.NewRecorder(1024)
	eng, err := live.NewEngine(live.Config{Trace: rec}, cl)
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

	deadline := time.Now().Add(30 * time.Second)
	for {
		if sat, _ := eng.QueueSaturation(0.8); sat > 0 && eng.Totals().Processed > 50_000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the Word Count never saturated a bolt queue")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, depth := eng.QueueSaturation(0.8)
	t0 := time.Now()
	moved, err := eng.Apply(app.Topology.Name(), next)
	applyMs := float64(time.Since(t0).Microseconds()) / 1e3
	if err != nil || moved != len(app.Topology.Executors()) {
		t.Fatalf("Apply = %d moved, %v", moved, err)
	}
	drains := rec.Filter(trace.QueuesDrained)
	if len(drains) != 1 || !strings.Contains(drains[0].Detail, "drained in") {
		t.Fatalf("Apply did not drain inside DrainTimeout %v: %v", eng.Config().DrainTimeout, drains)
	}
	t.Logf("live.apply_ms %.1f (DrainTimeout %v, deepest queue %d tuples at the apply): %s",
		applyMs, eng.Config().DrainTimeout, depth, drains[0].Detail)
}
