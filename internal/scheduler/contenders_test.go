package scheduler_test

import (
	"testing"

	"tstorm/internal/cluster"
	"tstorm/internal/decision"
	"tstorm/internal/loaddb"
	"tstorm/internal/scheduler"
	"tstorm/internal/scheduler/schedtest"
	"tstorm/internal/topology"
)

func TestContendersCompleteAndDeterministic(t *testing.T) {
	cl, err := cluster.Uniform(10, 4, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []scheduler.Algorithm{scheduler.RStorm{}, scheduler.Hetero{}} {
		t.Run(algo.Name(), func(t *testing.T) {
			in, err := schedtest.TwoTopologies(cl)
			if err != nil {
				t.Fatal(err)
			}
			a, err := algo.Schedule(in)
			if err != nil {
				t.Fatal(err)
			}
			if err := schedtest.Complete(in, a); err != nil {
				t.Fatal(err)
			}
			again, err := schedtest.TwoTopologies(cl)
			if err != nil {
				t.Fatal(err)
			}
			b, err := algo.Schedule(again)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Equal(b) {
				t.Fatal("two runs over the same input disagree")
			}
		})
	}
}

// TestRStormRespectsAllDimensions overloads one dimension at a time and
// checks that packing spreads instead of overcommitting it.
func TestRStormRespectsAllDimensions(t *testing.T) {
	top, err := schedtest.Chain("m", 20, 2, 5) // 14 executors
	if err != nil {
		t.Fatal(err)
	}
	// Small-memory nodes: 2 executors of 512 MB fill a 1200 MB node.
	nodes := make([]cluster.Node, 8)
	for i := range nodes {
		nodes[i] = cluster.Node{ID: cluster.NodeID(rune('a' + i)), Cores: 8,
			CoreMHz: 3000, NumSlots: 4, MemMB: 1200}
	}
	cl, err := cluster.New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	db := loaddb.New(1)
	for _, e := range top.Executors() {
		db.UpdateExecutorLoad(e, 100)
		db.UpdateExecutorMemory(e, 512)
	}
	in := scheduler.NewInput([]*topology.Topology{top}, cl, db.Snapshot(), 0)
	a, err := scheduler.RStorm{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := schedtest.Complete(in, a); err != nil {
		t.Fatal(err)
	}
	perNode := make(map[cluster.NodeID]float64)
	for e := range a.Executors {
		perNode[a.Executors[e].Node] += in.DemandFor(e).MemMB
	}
	for n, mb := range perNode {
		if mb > 1200 {
			t.Fatalf("node %s memory overcommitted: %v MB of 1200", n, mb)
		}
	}
	// 14 executors × 512 MB at ≤2 per node needs ≥7 nodes.
	if got := a.NumUsedNodes(); got < 7 {
		t.Fatalf("memory constraint ignored: only %d nodes used", got)
	}
}

// TestHeteroPrefersFastNodes puts two node classes in the cluster and
// checks the heavy executors land on the fast one.
func TestHeteroPrefersFastNodes(t *testing.T) {
	nodes := []cluster.Node{
		{ID: "fast", Cores: 16, CoreMHz: 4000, NumSlots: 8},
		{ID: "slow", Cores: 16, CoreMHz: 1000, NumSlots: 8},
	}
	cl, err := cluster.New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	top, err := schedtest.Chain("h", 8, 1, 2) // 1+2+2+2 = 7 executors
	if err != nil {
		t.Fatal(err)
	}
	db := loaddb.New(1)
	for i, e := range top.Executors() {
		db.UpdateExecutorLoad(e, float64(3000-200*i))
	}
	in := scheduler.NewInput([]*topology.Topology{top}, cl, db.Snapshot(), 0)
	a, err := scheduler.Hetero{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := schedtest.Complete(in, a); err != nil {
		t.Fatal(err)
	}
	// The fast node has 64 GHz usable; all 7 executors (≤ 21 GHz) fit, and
	// every placement scores higher there — nothing should touch "slow".
	for e, s := range a.Executors {
		if s.Node != "fast" {
			t.Fatalf("executor %v landed on %s with the fast node feasible", e, s.Node)
		}
	}
}

// TestContenderProbesNamePerDimensionConstraints runs rstorm with a probe
// on a memory-constrained cluster and checks losing slots carry resource-
// dimension rejection labels.
func TestContenderProbesNamePerDimensionConstraints(t *testing.T) {
	top, err := schedtest.Chain("p", 20, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]cluster.Node, 8)
	for i := range nodes {
		nodes[i] = cluster.Node{ID: cluster.NodeID(rune('a' + i)), Cores: 8,
			CoreMHz: 3000, NumSlots: 4, MemMB: 1200}
	}
	cl, err := cluster.New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	db := loaddb.New(1)
	for _, e := range top.Executors() {
		db.UpdateExecutorLoad(e, 100)
		db.UpdateExecutorMemory(e, 512)
	}
	in := scheduler.NewInput([]*topology.Topology{top}, cl, db.Snapshot(), 0)
	probe := decision.NewBuilder()
	in.Probe = probe
	if _, err := (scheduler.RStorm{}).Schedule(in); err != nil {
		t.Fatal(err)
	}
	rep := probe.Report()
	if rep.Algorithm != "rstorm" {
		t.Fatalf("report algorithm %q, want rstorm", rep.Algorithm)
	}
	if len(rep.Placements) != top.NumExecutors() {
		t.Fatalf("%d placements recorded, want %d", len(rep.Placements), top.NumExecutors())
	}
	byConstraint := make(map[decision.Constraint]int)
	for _, p := range rep.Placements {
		if len(p.Options) == 0 {
			t.Fatalf("placement of %v recorded no candidate slots", p.Executor)
		}
		chosen := 0
		for _, o := range p.Options {
			if o.Chosen {
				chosen++
			}
			if o.Rejected != "" {
				byConstraint[o.Rejected]++
			}
		}
		if chosen != 1 {
			t.Fatalf("placement of %v marked %d chosen slots", p.Executor, chosen)
		}
	}
	if byConstraint[decision.RejectedMemory] == 0 {
		t.Fatalf("no slot rejected on the memory dimension: %v", byConstraint)
	}
}

// extraAlgorithm is a name no builtin has.
type extraAlgorithm struct{}

func (extraAlgorithm) Name() string { return "extra" }

func (extraAlgorithm) Schedule(*scheduler.Input) (*cluster.Assignment, error) { return nil, nil }

func TestRegisterBuiltins(t *testing.T) {
	r := scheduler.NewRegistry()
	scheduler.RegisterBuiltins(r)
	for _, name := range []string{"default", "tstorm-initial", "aniello-offline",
		"aniello-online", "load-balanced", "rstorm", "hetero"} {
		if _, ok := r.Get(name); !ok {
			t.Fatalf("builtin %q not registered", name)
		}
	}
	// An already-registered name survives: callers register their running
	// algorithm after the builtins, so the instance in use wins clashes.
	r2 := scheduler.NewRegistry()
	scheduler.RegisterBuiltins(r2)
	r2.Register(extraAlgorithm{})
	if len(r2.Names()) != 8 {
		t.Fatalf("names = %v, want 8 entries", r2.Names())
	}
}
