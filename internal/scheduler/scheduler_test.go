package scheduler

import (
	"testing"

	"tstorm/internal/cluster"
	"tstorm/internal/loaddb"
	"tstorm/internal/topology"
)

func buildChain(t *testing.T, name string, workers, spoutPar, boltPar int) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder(name, workers)
	b.SetAckers(2)
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

func TestRoundRobinUsesAllNodes(t *testing.T) {
	top := buildChain(t, "tt", 40, 5, 15) // 5+15+15+2 = 37 executors
	cl := tenNodes(t)
	a, err := RoundRobin{}.Schedule(&Input{Topologies: []*topology.Topology{top}, Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Executors) != top.NumExecutors() {
		t.Fatalf("placed %d, want %d", len(a.Executors), top.NumExecutors())
	}
	// The paper's observation: the default scheduler always uses all
	// available worker nodes.
	if got := a.NumUsedNodes(); got != 10 {
		t.Fatalf("used %d nodes, want 10", got)
	}
	// 40 workers requested and 40 slots exist: 37 executors land on 37
	// distinct slots (one each), i.e. maximal spreading.
	if got := len(a.UsedSlots()); got != 37 {
		t.Fatalf("used %d slots, want 37", got)
	}
}

func TestRoundRobinFewerWorkersThanSlots(t *testing.T) {
	top := buildChain(t, "t", 5, 1, 4) // 1+4+4+2 = 11 executors
	cl := tenNodes(t)
	a, err := RoundRobin{}.Schedule(&Input{Topologies: []*topology.Topology{top}, Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(a.UsedSlots()); got != 5 {
		t.Fatalf("used %d slots, want N_u=5", got)
	}
	// Interleaved slot order spreads the 5 workers over 5 distinct nodes.
	if got := a.NumUsedNodes(); got != 5 {
		t.Fatalf("used %d nodes, want 5", got)
	}
}

func TestTStormInitialOneWorkerPerNode(t *testing.T) {
	top := buildChain(t, "t", 20, 2, 5) // N_u=20 > 10 nodes
	cl := tenNodes(t)
	a, err := TStormInitial{}.Schedule(&Input{Topologies: []*topology.Topology{top}, Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	// N*_w = min(20, 10) = 10 workers, one per node.
	if got := len(a.UsedSlots()); got != 10 {
		t.Fatalf("used %d slots, want 10", got)
	}
	if got := a.NumUsedNodes(); got != 10 {
		t.Fatalf("used %d nodes, want 10", got)
	}
	// At most one slot per node.
	perNode := make(map[cluster.NodeID]map[cluster.SlotID]bool)
	for _, s := range a.UsedSlots() {
		if perNode[s.Node] == nil {
			perNode[s.Node] = make(map[cluster.SlotID]bool)
		}
		perNode[s.Node][s] = true
	}
	for n, slots := range perNode {
		if len(slots) != 1 {
			t.Fatalf("node %s hosts %d slots, want 1", n, len(slots))
		}
	}
}

func TestSchedulersRespectOccupiedSlots(t *testing.T) {
	top := buildChain(t, "t", 40, 2, 5)
	cl := tenNodes(t)
	occupied := make(map[cluster.SlotID]bool)
	for _, s := range cl.Slots() {
		if s.Node == "node01" {
			occupied[s] = true
		}
	}
	for _, alg := range []Algorithm{RoundRobin{}, TStormInitial{}, AnielloOffline{}, AnielloOnline{}} {
		a, err := alg.Schedule(&Input{Topologies: []*topology.Topology{top}, Cluster: cl, Occupied: occupied})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		for e, s := range a.Executors {
			if s.Node == "node01" {
				t.Fatalf("%s placed %v on occupied node01", alg.Name(), e)
			}
		}
	}
}

func TestAnielloOfflineGroupsAdjacentComponents(t *testing.T) {
	top := buildChain(t, "t", 4, 2, 4) // 2+4+4+2 = 12 execs, 4 workers → 3 each
	cl := tenNodes(t)
	a, err := AnielloOffline{}.Schedule(&Input{Topologies: []*topology.Topology{top}, Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Executors) != 12 {
		t.Fatalf("placed %d, want 12", len(a.Executors))
	}
	if got := len(a.UsedSlots()); got != 4 {
		t.Fatalf("used %d slots, want 4", got)
	}
	// BFS order = spout, mid, sink, acker: the first chunk must contain
	// the two spout executors together (contiguous chunking).
	s0, _ := a.Slot(topology.ExecutorID{Topology: "t", Component: "spout", Index: 0})
	s1, _ := a.Slot(topology.ExecutorID{Topology: "t", Component: "spout", Index: 1})
	if s0 != s1 {
		t.Fatalf("spout executors split across %v and %v", s0, s1)
	}
}

func TestAnielloOnlineColocatesHotPairs(t *testing.T) {
	top := buildChain(t, "t", 4, 1, 2) // 1+2+2+2 = 7 execs
	cl := tenNodes(t)
	spout0 := topology.ExecutorID{Topology: "t", Component: "spout", Index: 0}
	mid0 := topology.ExecutorID{Topology: "t", Component: "mid", Index: 0}
	mid1 := topology.ExecutorID{Topology: "t", Component: "mid", Index: 1}
	sink0 := topology.ExecutorID{Topology: "t", Component: "sink", Index: 0}

	db := loaddb.New(1)
	db.UpdateTraffic(spout0, mid0, 1000) // hottest pair
	db.UpdateTraffic(mid0, sink0, 10)
	db.UpdateTraffic(spout0, mid1, 5)
	a, err := AnielloOnline{}.Schedule(&Input{
		Topologies: []*topology.Topology{top}, Cluster: cl, Load: db.Snapshot(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Executors) != 7 {
		t.Fatalf("placed %d, want 7", len(a.Executors))
	}
	sa, _ := a.Slot(spout0)
	sb, _ := a.Slot(mid0)
	if sa != sb {
		t.Fatalf("hottest pair split: %v vs %v", sa, sb)
	}
}

func TestAnielloOnlineWithoutLoadStillSchedules(t *testing.T) {
	top := buildChain(t, "t", 3, 1, 2)
	cl := tenNodes(t)
	a, err := AnielloOnline{}.Schedule(&Input{Topologies: []*topology.Topology{top}, Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Executors) != top.NumExecutors() {
		t.Fatalf("placed %d, want %d", len(a.Executors), top.NumExecutors())
	}
}

func TestMultipleTopologiesDisjointSlots(t *testing.T) {
	t1 := buildChain(t, "one", 5, 1, 2)
	t2 := buildChain(t, "two", 5, 1, 2)
	cl := tenNodes(t)
	for _, alg := range []Algorithm{RoundRobin{}, TStormInitial{}, AnielloOffline{}, AnielloOnline{}} {
		a, err := alg.Schedule(&Input{Topologies: []*topology.Topology{t1, t2}, Cluster: cl})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		slotOwner := make(map[cluster.SlotID]string)
		for e, s := range a.Executors {
			if owner, ok := slotOwner[s]; ok && owner != e.Topology {
				t.Fatalf("%s: slot %v shared by %s and %s", alg.Name(), s, owner, e.Topology)
			}
			slotOwner[s] = e.Topology
		}
	}
}

func TestInputValidation(t *testing.T) {
	if err := (&Input{}).Validate(); err == nil {
		t.Fatal("empty input validated")
	}
	top := buildChain(t, "t", 1, 1, 1)
	if err := (&Input{Topologies: []*topology.Topology{top}}).Validate(); err == nil {
		t.Fatal("input without cluster validated")
	}
	cl := tenNodes(t)
	bad := &Input{Topologies: []*topology.Topology{top}, Cluster: cl, Constraints: Constraints{CPUFraction: 1.5}}
	if err := bad.Validate(); err == nil {
		t.Fatal("capacity fraction >1 validated")
	}
	good := &Input{Topologies: []*topology.Topology{top}, Cluster: cl}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.NumExecutors() != top.NumExecutors() {
		t.Fatal("NumExecutors mismatch")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Register(RoundRobin{})
	r.Register(TStormInitial{})
	if _, ok := r.Get("default"); !ok {
		t.Fatal("default not registered")
	}
	if _, ok := r.Get("nope"); ok {
		t.Fatal("ghost algorithm found")
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "default" || names[1] != "tstorm-initial" {
		t.Fatalf("Names = %v", names)
	}
}

func TestInterleavedFreeSlotsOrder(t *testing.T) {
	cl := tenNodes(t)
	in := &Input{Topologies: []*topology.Topology{buildChain(t, "t", 1, 1, 1)}, Cluster: cl}
	slots := in.InterleavedFreeSlots()
	// Port-major: all nodes' 6700 first, then all 6701, ...
	for i := 0; i < 10; i++ {
		if slots[i].Port != cluster.BasePort {
			t.Fatalf("slot %d = %v, want port %d first", i, slots[i], cluster.BasePort)
		}
	}
	if slots[10].Port != cluster.BasePort+1 || slots[10].Node != "node01" {
		t.Fatalf("slot 10 = %v", slots[10])
	}
	// Occupied slots are excluded.
	in.Occupied = map[cluster.SlotID]bool{{Node: "node01", Port: cluster.BasePort}: true}
	free := in.InterleavedFreeSlots()
	if len(free) != 39 || free[0].Node != "node02" {
		t.Fatalf("occupied not excluded: %v", free[0])
	}
}

func TestFreeSlotsNodeMajor(t *testing.T) {
	cl := tenNodes(t)
	in := &Input{Topologies: []*topology.Topology{buildChain(t, "t", 1, 1, 1)}, Cluster: cl}
	slots := in.FreeSlots()
	if slots[0] != (cluster.SlotID{Node: "node01", Port: cluster.BasePort}) ||
		slots[1] != (cluster.SlotID{Node: "node01", Port: cluster.BasePort + 1}) {
		t.Fatalf("node-major order wrong: %v %v", slots[0], slots[1])
	}
}

func TestLoadBalancedSpreadsHeavyExecutorsEvenly(t *testing.T) {
	top := buildChain(t, "t", 20, 2, 5) // 14 executors
	cl := tenNodes(t)
	db := loaddb.New(1)
	for i, e := range top.Executors() {
		db.UpdateExecutorLoad(e, float64(100*(i+1)))
	}
	a, err := LoadBalanced{}.Schedule(&Input{
		Topologies: []*topology.Topology{top}, Cluster: cl, Load: db.Snapshot(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Executors) != top.NumExecutors() {
		t.Fatalf("placed %d, want %d", len(a.Executors), top.NumExecutors())
	}
	// One slot per node per topology.
	perNode := map[cluster.NodeID]map[cluster.SlotID]bool{}
	nodeLoad := map[cluster.NodeID]float64{}
	snap := db.Snapshot()
	for e, s := range a.Executors {
		if perNode[s.Node] == nil {
			perNode[s.Node] = map[cluster.SlotID]bool{}
		}
		perNode[s.Node][s] = true
		nodeLoad[s.Node] += snap.ExecLoad[e]
	}
	for n, slots := range perNode {
		if len(slots) != 1 {
			t.Fatalf("node %s hosts %d slots", n, len(slots))
		}
	}
	// Balance: max node load within 3× of min among used nodes (LPT bound
	// is far tighter; this guards regressions).
	lo, hi := 1e18, 0.0
	for _, l := range nodeLoad {
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if hi > 3*lo {
		t.Fatalf("imbalanced: min %v max %v", lo, hi)
	}
	if (LoadBalanced{}).Name() != "load-balanced" {
		t.Fatal("Name wrong")
	}
}
