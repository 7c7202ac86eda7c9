package core

import (
	"math"
	"testing"

	"tstorm/internal/cluster"
	"tstorm/internal/decision"
	"tstorm/internal/loaddb"
	"tstorm/internal/scheduler"
	"tstorm/internal/topology"
)

// scheduleProbed runs one Algorithm 1 round with a decision probe and
// returns the assignment and how many placements needed a relaxation.
func scheduleProbed(t *testing.T, ta *TrafficAware, in *scheduler.Input) (*cluster.Assignment, int) {
	t.Helper()
	in.Probe = decision.NewBuilder()
	a, err := ta.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	return a, in.Probe.Report().Relaxations
}

func buildChain(t *testing.T, name string, workers, spoutPar, boltPar, ackers int) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder(name, workers)
	b.SetAckers(ackers)
	b.Spout("spout", spoutPar).Output("default", "v")
	b.Bolt("mid", boltPar).Shuffle("spout").Output("default", "v")
	b.Bolt("sink", boltPar).Shuffle("mid")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func tenNodes(t *testing.T) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.Uniform(10, 4, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// chainLoad populates a DB with a uniform pipeline load for the chain
// topology: every spout executor sends rate tuples/s to every mid
// executor, etc., and each executor burns mhz.
func chainLoad(top *topology.Topology, rate, mhz float64) *loaddb.DB {
	db := loaddb.New(1)
	var spouts, mids, sinks []topology.ExecutorID
	for _, e := range top.Executors() {
		switch e.Component {
		case "spout":
			spouts = append(spouts, e)
		case "mid":
			mids = append(mids, e)
		case "sink":
			sinks = append(sinks, e)
		}
		db.UpdateExecutorLoad(e, mhz)
	}
	for _, s := range spouts {
		for _, m := range mids {
			db.UpdateTraffic(s, m, rate/float64(len(mids)))
		}
	}
	for _, m := range mids {
		for _, k := range sinks {
			db.UpdateTraffic(m, k, rate/float64(len(sinks)))
		}
	}
	return db
}

func TestTrafficAwareBeatsRoundRobinOnObjective(t *testing.T) {
	top := buildChain(t, "t", 20, 2, 5, 3) // 2+5+5+3 = 15 executors
	cl := tenNodes(t)
	db := chainLoad(top, 100, 100)
	in := &scheduler.Input{
		Topologies: []*topology.Topology{top}, Cluster: cl, Load: db.Snapshot(),
	}
	ta := NewTrafficAware(2)
	tstormA, err := ta.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	rrA, err := scheduler.RoundRobin{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	tstormObj := InterNodeTraffic(tstormA, snap)
	rrObj := InterNodeTraffic(rrA, snap)
	if tstormObj >= rrObj {
		t.Fatalf("T-Storm inter-node traffic %.1f not below round-robin %.1f", tstormObj, rrObj)
	}
}

func TestTrafficAwareOneSlotPerTopologyPerNode(t *testing.T) {
	top := buildChain(t, "t", 20, 2, 5, 3)
	cl := tenNodes(t)
	db := chainLoad(top, 100, 100)
	a, err := NewTrafficAware(1.5).Schedule(&scheduler.Input{
		Topologies: []*topology.Topology{top}, Cluster: cl, Load: db.Snapshot(),
	})
	if err != nil {
		t.Fatal(err)
	}
	slotsPerNode := make(map[cluster.NodeID]map[cluster.SlotID]bool)
	for _, s := range a.UsedSlots() {
		if slotsPerNode[s.Node] == nil {
			slotsPerNode[s.Node] = make(map[cluster.SlotID]bool)
		}
		slotsPerNode[s.Node][s] = true
	}
	for n, slots := range slotsPerNode {
		if len(slots) > 1 {
			t.Fatalf("node %s hosts %d slots of one topology, want ≤1", n, len(slots))
		}
	}
	// Consequence: inter-process traffic is zero.
	if got := InterProcessTraffic(a, db.Snapshot()); got != 0 {
		t.Fatalf("inter-process traffic = %v, want 0", got)
	}
}

func TestGammaControlsConsolidation(t *testing.T) {
	// The Word Count shape of the paper: 2+5+5+5 executors + 3 ackers =
	// 20 executors on 10 nodes. γ=1 → 10 nodes, γ=1.8 → 7, γ=2.2 → 5.
	b := topology.NewBuilder("wc", 20)
	b.SetAckers(3)
	b.Spout("reader", 2).Output("default", "line")
	b.Bolt("split", 5).Shuffle("reader").Output("default", "word")
	b.Bolt("count", 5).Fields("split", "word").Output("default", "word", "count")
	b.Bolt("mongo", 5).Shuffle("count")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cl := tenNodes(t)
	db := loaddb.New(1)
	for _, e := range top.Executors() {
		db.UpdateExecutorLoad(e, 200)
	}
	execs := top.Executors()
	for i := 0; i < len(execs); i++ {
		for j := i + 1; j < len(execs); j++ {
			db.UpdateTraffic(execs[i], execs[j], 10)
		}
	}
	tests := []struct {
		gamma     float64
		wantNodes int
	}{
		{1.0, 10},
		{1.8, 7},
		{2.2, 5},
	}
	for _, tt := range tests {
		a, err := NewTrafficAware(tt.gamma).Schedule(&scheduler.Input{
			Topologies: []*topology.Topology{top}, Cluster: cl, Load: db.Snapshot(),
		})
		if err != nil {
			t.Fatalf("γ=%v: %v", tt.gamma, err)
		}
		if got := a.NumUsedNodes(); got != tt.wantNodes {
			t.Errorf("γ=%v used %d nodes, want %d", tt.gamma, got, tt.wantNodes)
		}
	}
}

func TestCapacityConstraintSpreadsHeavyLoad(t *testing.T) {
	top := buildChain(t, "t", 20, 2, 5, 1) // 13 executors
	cl := tenNodes(t)                      // 8000 MHz per node
	db := loaddb.New(1)
	for _, e := range top.Executors() {
		db.UpdateExecutorLoad(e, 3000) // 3 GHz each: at most 2 per node at 0.9 cap
		db.UpdateTraffic(e, e, 0)
	}
	a, err := NewTrafficAware(6).Schedule(&scheduler.Input{
		Topologies:  []*topology.Topology{top},
		Cluster:     cl,
		Load:        db.Snapshot(),
		Constraints: scheduler.Constraints{CPUFraction: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 13 executors × 3000 MHz at ≤ 7200 MHz usable per node → ≥ 7 nodes.
	if got := a.NumUsedNodes(); got < 7 {
		t.Fatalf("capacity ignored: %d nodes for 39 GHz of load", got)
	}
	perNode := make(map[cluster.NodeID]float64)
	for e, s := range a.Executors {
		perNode[s.Node] += db.Snapshot().ExecLoad[e]
	}
	for n, l := range perNode {
		if l > 7200 {
			t.Fatalf("node %s overloaded at %v MHz", n, l)
		}
	}
}

func TestRelaxationWhenInfeasible(t *testing.T) {
	// γ=1 with 45 executors on 10 nodes: cap 4.5/node can't hold 45
	// executors in 10 nodes without relaxation (4×10 = 40 < 45); the
	// algorithm must still produce a full assignment.
	top := buildChain(t, "t", 40, 5, 15, 10) // 5+15+15+10 = 45
	cl := tenNodes(t)
	db := chainLoad(top, 1000, 100)
	a, relaxations := scheduleProbed(t, NewTrafficAware(1), &scheduler.Input{
		Topologies: []*topology.Topology{top}, Cluster: cl, Load: db.Snapshot(),
	})
	if len(a.Executors) != 45 {
		t.Fatalf("placed %d, want 45", len(a.Executors))
	}
	if relaxations == 0 {
		t.Fatal("expected relaxations at γ=1 with 45 executors")
	}
	if got := a.NumUsedNodes(); got != 10 {
		t.Fatalf("γ=1 used %d nodes, want all 10", got)
	}
}

func TestTrafficAwareValidation(t *testing.T) {
	top := buildChain(t, "t", 1, 1, 1, 1)
	cl := tenNodes(t)
	if _, err := NewTrafficAware(0.5).Schedule(&scheduler.Input{
		Topologies: []*topology.Topology{top}, Cluster: cl,
	}); err == nil {
		t.Fatal("γ<1 accepted")
	}
	if _, err := NewTrafficAware(1).Schedule(&scheduler.Input{}); err == nil {
		t.Fatal("empty input accepted")
	}
	// Nil load snapshot is fine (cold start).
	if _, err := NewTrafficAware(1).Schedule(&scheduler.Input{
		Topologies: []*topology.Topology{top}, Cluster: cl,
	}); err != nil {
		t.Fatal(err)
	}
	if NewTrafficAware(1).Name() != "tstorm" {
		t.Fatal("Name wrong")
	}
}

func TestTrafficAwareMultiTopology(t *testing.T) {
	t1 := buildChain(t, "one", 10, 1, 2, 1)
	t2 := buildChain(t, "two", 10, 1, 2, 1)
	cl := tenNodes(t)
	db := loaddb.New(1)
	for _, top := range []*topology.Topology{t1, t2} {
		for _, e := range top.Executors() {
			db.UpdateExecutorLoad(e, 100)
		}
	}
	a, err := NewTrafficAware(5).Schedule(&scheduler.Input{
		Topologies: []*topology.Topology{t1, t2}, Cluster: cl, Load: db.Snapshot(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Executors) != t1.NumExecutors()+t2.NumExecutors() {
		t.Fatal("not all executors placed")
	}
	owner := make(map[cluster.SlotID]string)
	for e, s := range a.Executors {
		if o, ok := owner[s]; ok && o != e.Topology {
			t.Fatalf("slot %v shared by topologies %s and %s", s, o, e.Topology)
		}
		owner[s] = e.Topology
	}
}

func TestDeterministicOutput(t *testing.T) {
	top := buildChain(t, "t", 20, 2, 5, 3)
	cl := tenNodes(t)
	db := chainLoad(top, 100, 100)
	in := &scheduler.Input{Topologies: []*topology.Topology{top}, Cluster: cl, Load: db.Snapshot()}
	a1, err := NewTrafficAware(2).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewTrafficAware(2).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if !a1.Equal(a2) {
		t.Fatal("two identical runs produced different assignments")
	}
}

func TestMaxNodeLoad(t *testing.T) {
	top := buildChain(t, "t", 1, 1, 1, 1)
	cl := tenNodes(t)
	db := loaddb.New(1)
	execs := top.Executors()
	a := cluster.NewAssignment(0)
	for i, e := range execs {
		db.UpdateExecutorLoad(e, float64(100*(i+1)))
		a.Assign(e, cl.Slots()[0]) // everything on node01
	}
	node, load := MaxNodeLoad(a, db.ExecLoads())
	if node != "node01" {
		t.Fatalf("MaxNodeLoad node = %s", node)
	}
	want := 0.0
	for i := range execs {
		want += float64(100 * (i + 1))
	}
	if load != want {
		t.Fatalf("load = %v, want %v", load, want)
	}
	// Empty assignment.
	if n, l := MaxNodeLoad(cluster.NewAssignment(0), db.ExecLoads()); n != "" || l != 0 {
		t.Fatalf("empty MaxNodeLoad = %s, %v", n, l)
	}
}

func TestHeterogeneousClusterRespectsPerNodeCapacity(t *testing.T) {
	// Two big nodes (8×2000 MHz) and four small ones (2×2000 MHz): the
	// capacity constraint is per-node (C_k), so heavy executors must
	// concentrate on the big nodes without overloading the small ones.
	nodes := []cluster.Node{
		{ID: "big1", Cores: 8, CoreMHz: 2000, NumSlots: 4},
		{ID: "big2", Cores: 8, CoreMHz: 2000, NumSlots: 4},
		{ID: "small1", Cores: 2, CoreMHz: 2000, NumSlots: 2},
		{ID: "small2", Cores: 2, CoreMHz: 2000, NumSlots: 2},
		{ID: "small3", Cores: 2, CoreMHz: 2000, NumSlots: 2},
		{ID: "small4", Cores: 2, CoreMHz: 2000, NumSlots: 2},
	}
	cl, err := cluster.New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	top := buildChain(t, "het", 10, 2, 6, 1) // 15 executors
	db := loaddb.New(1)
	for _, e := range top.Executors() {
		db.UpdateExecutorLoad(e, 2400) // 2.4 GHz each: small nodes fit ≤1, big ≤6
	}
	a, relaxations := scheduleProbed(t, NewTrafficAware(6), &scheduler.Input{
		Topologies:  []*topology.Topology{top},
		Cluster:     cl,
		Load:        db.Snapshot(),
		Constraints: scheduler.Constraints{CPUFraction: 0.9},
	})
	snap := db.Snapshot()
	perNode := map[cluster.NodeID]float64{}
	for e, s := range a.Executors {
		perNode[s.Node] += snap.ExecLoad[e]
	}
	for _, n := range nodes {
		if perNode[n.ID] > 0.9*n.CapacityMHz()+1e-9 {
			t.Fatalf("node %s overloaded: %v MHz of %v", n.ID, perNode[n.ID], n.CapacityMHz())
		}
	}
	// Big nodes must carry more than small ones.
	if perNode["big1"] <= perNode["small1"] {
		t.Fatalf("capacity-blind packing: big1=%v small1=%v", perNode["big1"], perNode["small1"])
	}
	if relaxations != 0 {
		t.Fatalf("feasible heterogeneous input needed %d relaxations", relaxations)
	}
}

func TestTrafficAwareBeatsLoadBalancedOnObjective(t *testing.T) {
	// Same load information, same one-slot-per-node rule: the only
	// difference is the objective. T-Storm must win on inter-node traffic.
	top := buildChain(t, "t", 20, 5, 5, 3)
	cl := tenNodes(t)
	// Skewed, tie-free traffic: spout[i] → mid[i] is hot with distinct
	// rates, and executor loads differ, so the load balancer's choices are
	// driven by balance alone and split the pairs.
	db := loaddb.New(1)
	for i, e := range top.Executors() {
		db.UpdateExecutorLoad(e, 300+float64(13*i))
	}
	for i := 0; i < 5; i++ {
		from := topology.ExecutorID{Topology: "t", Component: "spout", Index: i}
		to := topology.ExecutorID{Topology: "t", Component: "mid", Index: i}
		db.UpdateTraffic(from, to, float64(1000-100*i))
		sink := topology.ExecutorID{Topology: "t", Component: "sink", Index: (i + 1) % 5}
		db.UpdateTraffic(to, sink, 1)
	}
	in := &scheduler.Input{
		Topologies: []*topology.Topology{top}, Cluster: cl, Load: db.Snapshot(),
	}
	lb, err := scheduler.LoadBalanced{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := NewTrafficAware(2).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	if got, other := InterNodeTraffic(ta, snap), InterNodeTraffic(lb, snap); got >= other {
		t.Fatalf("T-Storm objective %.0f not below load-balanced %.0f", got, other)
	}
}

// TestCountCapIgnoresFencedNodes: the K of γ·Ne/K counts the nodes an
// executor can actually go to. With one of four nodes fenced off after a
// failure, 12 executors at γ = 1 spread 4 + 4 + 4 over the three alive
// ones; counting the dead node made the cap 3 × 3 = 9 < 12, so every
// round after a failure relaxed and packed.
func TestCountCapIgnoresFencedNodes(t *testing.T) {
	top := buildChain(t, "t", 4, 2, 4, 2) // 2+4+4+2 = 12 executors
	cl, err := cluster.Uniform(4, 4, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := scheduler.NewInput([]*topology.Topology{top}, cl, chainLoad(top, 100, 100).Snapshot(), 0)
	in.OccupyNode("node02")
	a, relaxations := scheduleProbed(t, NewTrafficAware(1), in)
	if relaxations != 0 {
		t.Fatalf("Relaxations = %d, want 0", relaxations)
	}
	perNode := make(map[cluster.NodeID]int)
	for _, s := range a.Executors {
		perNode[s.Node]++
	}
	if len(perNode) != 3 || perNode["node01"] != 4 || perNode["node03"] != 4 || perNode["node04"] != 4 {
		t.Fatalf("executors per node = %v, want 4 on each of node01, node03, node04", perNode)
	}
}

// TestNaNTrafficSortsLast: an executor whose total traffic is NaN is
// placed after every executor with a number, NaNs among themselves in
// executor-ID order, and the round still meets Algorithm 1's constraints.
func TestNaNTrafficSortsLast(t *testing.T) {
	top := buildChain(t, "t", 20, 2, 3, 1)
	cl := tenNodes(t)
	db := chainLoad(top, 100, 100)
	snap := db.Snapshot()
	spout0 := topology.ExecutorID{Topology: "t", Component: "spout", Index: 0}
	sink2 := topology.ExecutorID{Topology: "t", Component: "sink", Index: 2}
	snap.Flows = append(snap.Flows, loaddb.Flow{From: spout0, To: sink2, Rate: math.NaN()})
	in := &scheduler.Input{Topologies: []*topology.Topology{top}, Cluster: cl, Load: snap}
	in.Probe = decision.NewBuilder()
	a, err := NewTrafficAware(2).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	rep := in.Probe.Report()
	checkConstraints(t, in, a, rep)
	total := snap.TotalTraffic()
	var order []topology.ExecutorID
	for _, p := range rep.Placements {
		order = append(order, p.Executor)
	}
	if n := len(order); order[n-2] != sink2 || order[n-1] != spout0 {
		t.Fatalf("NaN-traffic executors %v and %v not last in ID order: %v", sink2, spout0, order)
	}
	for i := 1; i < len(order)-2; i++ {
		prev, cur := total[order[i-1]], total[order[i]]
		if prev < cur || (prev == cur && !order[i-1].Less(order[i])) {
			t.Fatalf("placement %d: %v (%v) after %v (%v)", i, order[i], cur, order[i-1], prev)
		}
	}
}
