package engine

import (
	"testing"
	"time"

	"tstorm/internal/trace"
)

func TestTraceRecordsLifecycle(t *testing.T) {
	cl := testCluster(t, 2)
	cfg := DefaultConfig()
	rec := trace.NewRecorder(1000)
	cfg.Trace = rec
	rt := mustRuntime(t, cfg, cl)
	spout := &testSpout{}
	app := chainApp(t, spout, newRecorder(), newRecorder(), 1, 1)
	if err := rt.Submit(app, packAll(app.Topology, cl)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.Filter(trace.AssignmentPublished)); got != 1 {
		t.Fatalf("assignment events = %d, want 1", got)
	}
	if got := len(rec.Filter(trace.WorkerStarted)); got != 1 {
		t.Fatalf("worker-started events = %d, want 1", got)
	}
	// Crash → killed + restarted events.
	rt.CrashWorker(cl.Slots()[0])
	if err := rt.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.Filter(trace.WorkerKilled)); got != 1 {
		t.Fatalf("worker-killed events = %d, want 1", got)
	}
	if got := len(rec.Filter(trace.WorkerStarted)); got != 2 {
		t.Fatalf("worker-started after restart = %d, want 2", got)
	}
	// Node failure and recovery leave their marks.
	rt.FailNode("node02")
	rt.RecoverNode("node02")
	for _, kind := range []trace.Kind{trace.NodeFailed, trace.NodeRecovered} {
		if got := len(rec.Filter(kind)); got != 1 {
			t.Fatalf("%s events = %d, want 1", kind, got)
		}
	}
	// Events carry timestamps in order.
	evs := rec.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("trace out of order at %d: %v after %v", i, evs[i], evs[i-1])
		}
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	cl := testCluster(t, 1)
	rt := mustRuntime(t, DefaultConfig(), cl)
	spout := &testSpout{limit: 1}
	app := chainApp(t, spout, newRecorder(), newRecorder(), 1, 1)
	if err := rt.Submit(app, packAll(app.Topology, cl)); err != nil {
		t.Fatal(err)
	}
	// No recorder attached: must not panic anywhere.
	if err := rt.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}
