package engine

import (
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/sim"
)

func TestCrashedWorkerIsRestartedBySupervisor(t *testing.T) {
	cl := testCluster(t, 1)
	rt := mustRuntime(t, DefaultConfig(), cl)
	spout := &testSpout{}
	app := chainApp(t, spout, newRecorder(), newRecorder(), 1, 1)
	slot := cl.Slots()[0]
	if err := rt.Submit(app, packAll(app.Topology, cl)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	tm := rt.Metrics("test")
	before := tm.Completions
	if before == 0 {
		t.Fatal("no progress before crash")
	}
	if !rt.CrashWorker(slot) {
		t.Fatal("CrashWorker found no worker")
	}
	if rt.CrashWorker(slot) {
		t.Fatal("second crash found a worker before restart")
	}
	if tm.WorkerCrashes != 1 {
		t.Fatalf("WorkerCrashes = %d, want 1", tm.WorkerCrashes)
	}
	// Supervisor restarts it within a sync period + startup; processing
	// resumes.
	if err := rt.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if tm.Completions <= before {
		t.Fatal("processing did not resume after worker restart")
	}
}

func TestCrashWorkerBadTargets(t *testing.T) {
	cl := testCluster(t, 1)
	rt := mustRuntime(t, DefaultConfig(), cl)
	if rt.CrashWorker(cluster.SlotID{Node: "ghost", Port: 1}) {
		t.Fatal("crashed a worker on a ghost node")
	}
	if rt.CrashWorker(cluster.SlotID{Node: "node01", Port: 9999}) {
		t.Fatal("crashed a worker on a missing slot")
	}
	if rt.CrashWorker(cl.Slots()[0]) {
		t.Fatal("crashed a worker on an empty slot")
	}
}

func TestNodeFailureTriggersRescueReassignment(t *testing.T) {
	cl := testCluster(t, 3)
	rt := mustRuntime(t, DefaultConfig(), cl)
	spout := &testSpout{}
	app := chainApp(t, spout, newRecorder(), newRecorder(), 2, 2)
	var slots []cluster.SlotID
	for _, n := range cl.Nodes() {
		slots = append(slots, cluster.SlotID{Node: n.ID, Port: cluster.BasePort})
	}
	if err := rt.Submit(app, spreadRR(app.Topology, slots)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !rt.FailNode("node02") {
		t.Fatal("FailNode failed")
	}
	if rt.FailNode("node02") {
		t.Fatal("double FailNode reported success")
	}
	if !rt.nodes["node02"].down || len(rt.DownNodes()) != 1 {
		t.Fatal("down-node accounting wrong")
	}
	// Heartbeat timeout (30s) + sync: rescue within ~60s.
	if err := rt.RunFor(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	tm := rt.Metrics("test")
	if tm.RescueReassignments == 0 {
		t.Fatal("no rescue re-assignment published")
	}
	cur, _ := rt.CurrentAssignment("test")
	for e, s := range cur.Executors {
		if s.Node == "node02" {
			t.Fatalf("executor %v still assigned to the dead node", e)
		}
	}
	// Processing resumes on the remaining nodes.
	before := tm.Completions
	if err := rt.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if tm.Completions <= before {
		t.Fatal("no progress after rescue")
	}
	// Rescue happens exactly once for one failure.
	if tm.RescueReassignments != 1 {
		t.Fatalf("RescueReassignments = %d, want 1", tm.RescueReassignments)
	}
}

func TestNodeRecoveryMakesNodeSchedulableAgain(t *testing.T) {
	cl := testCluster(t, 2)
	rt := mustRuntime(t, DefaultConfig(), cl)
	spout := &testSpout{}
	app := chainApp(t, spout, newRecorder(), newRecorder(), 1, 1)
	if err := rt.Submit(app, packAll(app.Topology, cl)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	rt.FailNode("node02") // idle node, no rescue needed
	if err := rt.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if rt.Metrics("test").RescueReassignments != 0 {
		t.Fatal("rescue fired for a node hosting nothing")
	}
	if !rt.RecoverNode("node02") {
		t.Fatal("RecoverNode failed")
	}
	if rt.RecoverNode("node02") {
		t.Fatal("double recovery reported success")
	}
	if len(rt.DownNodes()) != 0 {
		t.Fatal("DownNodes not empty after recovery")
	}
	// A new assignment can use the recovered node again.
	moved := packAll(app.Topology, cl)
	for e := range moved.Executors {
		moved.Assign(e, cluster.SlotID{Node: "node02", Port: cluster.BasePort})
	}
	if err := rt.PublishAssignment("test", moved); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	tm := rt.Metrics("test")
	if tm.Latency.MeanAfter(sim.Time(150*time.Second)) <= 0 {
		t.Fatal("no samples after moving onto the recovered node")
	}
}

func TestFailNodeDuringSmoothModeKeepsClusterConsistent(t *testing.T) {
	cl := testCluster(t, 3)
	rt := mustRuntime(t, TStormConfig(), cl)
	spout := &testSpout{}
	app := chainApp(t, spout, newRecorder(), newRecorder(), 2, 2)
	var slots []cluster.SlotID
	for _, n := range cl.Nodes() {
		slots = append(slots, cluster.SlotID{Node: n.ID, Port: cluster.BasePort})
	}
	if err := rt.Submit(app, spreadRR(app.Topology, slots)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	rt.FailNode("node03")
	if err := rt.RunFor(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	tm := rt.Metrics("test")
	if tm.RescueReassignments == 0 {
		t.Fatal("smooth mode: no rescue")
	}
	before := tm.Completions
	if err := rt.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if tm.Completions <= before {
		t.Fatal("smooth mode: no progress after rescue")
	}
	// node03 hosts no live workers.
	if rt.nodes["node03"].activeWorkers != 0 {
		t.Fatalf("dead node has %d workers", rt.nodes["node03"].activeWorkers)
	}
}
