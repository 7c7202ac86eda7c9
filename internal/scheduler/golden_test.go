package scheduler_test

// Golden-assignment equivalence tests: every algorithm's placement on a
// fixed fixture is pinned byte-for-byte in testdata/golden/. The fixtures
// were captured against the scalar-CapacityFraction Input that predated
// the multi-resource redesign, so a passing run proves the redesigned
// Input (Constraints block + per-executor Demands) leaves every
// pre-existing algorithm's output bit-identical. Regenerate deliberately
// with `go test -run TestGoldenAssignments -update ./internal/scheduler`
// after a change that is MEANT to alter placements.

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"tstorm/internal/cluster"
	"tstorm/internal/core"
	"tstorm/internal/decision"
	"tstorm/internal/loaddb"
	"tstorm/internal/scheduler"
	"tstorm/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden fixtures")

// goldenTopologies builds the fixture: two topologies of different shapes
// sharing one cluster, so slot-exclusivity and multi-topology interleaving
// are both exercised.
func goldenTopologies(t *testing.T) []*topology.Topology {
	t.Helper()
	ab := topology.NewBuilder("alpha", 8)
	ab.SetAckers(2)
	ab.Spout("spout", 4).Output("default", "v")
	ab.Bolt("mid", 8).Shuffle("spout").Output("default", "k", "v")
	ab.Bolt("sink", 6).Fields("mid", "k")
	alpha, err := ab.Build()
	if err != nil {
		t.Fatal(err)
	}
	bb := topology.NewBuilder("beta", 4)
	bb.SetAckers(1)
	bb.Spout("spout", 2).Output("default", "v")
	bb.Bolt("work", 4).Shuffle("spout")
	beta, err := bb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return []*topology.Topology{alpha, beta}
}

// goldenLoad synthesizes a deterministic load snapshot: executor CPU load
// and pairwise traffic follow closed-form functions of the executor
// indices, so the snapshot is identical on every run and every platform.
func goldenLoad(tops []*topology.Topology) *loaddb.Snapshot {
	db := loaddb.New(1)
	for ti, top := range tops {
		execs := top.Executors()
		for i, e := range execs {
			db.UpdateExecutorLoad(e, float64(100+37*((i+ti*11)%13)))
		}
		// Traffic along declared edges: every producer executor feeds every
		// consumer executor with a rate derived from the index pair.
		for _, name := range top.ComponentNames() {
			c, _ := top.Component(name)
			for _, edge := range top.Consumers(name, topology.DefaultStream) {
				cons, _ := top.Component(edge.Consumer)
				for i := 0; i < c.Parallelism; i++ {
					from := topology.ExecutorID{Topology: top.Name(), Component: name, Index: i}
					for j := 0; j < cons.Parallelism; j++ {
						to := topology.ExecutorID{Topology: top.Name(), Component: edge.Consumer, Index: j}
						db.UpdateTraffic(from, to, float64(50+(i*7+j*3+ti*5)%97))
					}
				}
			}
		}
	}
	return db.Snapshot()
}

// goldenAlgorithms lists every algorithm under golden pinning, with
// Algorithm 1 at the given consolidation factor.
func goldenAlgorithms(gamma float64) []scheduler.Algorithm {
	return []scheduler.Algorithm{
		scheduler.RoundRobin{},
		scheduler.TStormInitial{},
		scheduler.AnielloOffline{},
		scheduler.AnielloOnline{},
		scheduler.LoadBalanced{},
		core.NewTrafficAware(gamma),
		scheduler.RStorm{},
		scheduler.Hetero{},
	}
}

// uniformInput is the original fixture: six equal nodes with room to
// spare, so no algorithm relaxes anything.
func uniformInput(t *testing.T) *scheduler.Input {
	t.Helper()
	cl, err := cluster.Uniform(6, 4, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	tops := goldenTopologies(t)
	return scheduler.NewInput(tops, cl, goldenLoad(tops), 0.9)
}

// tightInput is the second fixture: five unequal nodes, two slots held by
// a foreign topology, and less usable CPU (7560 MHz) than the executors
// ask for (7584 MHz) — at γ = 1 Algorithm 1 has to relax first the count
// cap and then capacity, and the contenders run into their memory and
// bandwidth limits.
func tightInput(t *testing.T) *scheduler.Input {
	t.Helper()
	cl, err := cluster.New([]cluster.Node{
		{ID: "big", Cores: 2, CoreMHz: 1600, NumSlots: 4, MemMB: 4096, NetMBps: 250},
		{ID: "fast", Cores: 1, CoreMHz: 2000, NumSlots: 3},
		{ID: "lowmem", Cores: 2, CoreMHz: 800, NumSlots: 3, MemMB: 512},
		{ID: "lownet", Cores: 1, CoreMHz: 1000, NumSlots: 3, NetMBps: 0.4},
		{ID: "tiny", Cores: 1, CoreMHz: 600, NumSlots: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	tops := goldenTopologies(t)
	in := scheduler.NewInput(tops, cl, goldenLoad(tops), 0.9)
	in.Constraints.MemFraction = 0.5
	in.Constraints.NetFraction = 0.8
	in.Occupied[cluster.SlotID{Node: "big", Port: cluster.BasePort + 1}] = true
	in.Occupied[cluster.SlotID{Node: "lowmem", Port: cluster.BasePort}] = true
	return in
}

func TestGoldenAssignments(t *testing.T) {
	for _, fx := range []struct {
		dir   string
		gamma float64
		input func(*testing.T) *scheduler.Input
	}{
		{"", 1.5, uniformInput},
		{"tight", 1, tightInput},
	} {
		for _, algo := range goldenAlgorithms(fx.gamma) {
			t.Run(filepath.Join(fx.dir, algo.Name()), func(t *testing.T) {
				a, err := algo.Schedule(fx.input(t))
				if err != nil {
					t.Fatal(err)
				}
				raw, err := json.Marshal(a)
				if err != nil {
					t.Fatal(err)
				}
				var buf json.RawMessage = raw
				pretty, err := json.MarshalIndent(buf, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				pretty = append(pretty, '\n')
				path := filepath.Join("testdata", "golden", fx.dir, algo.Name()+".json")
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, pretty, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden fixture (run with -update to capture): %v", err)
				}
				if string(want) != string(pretty) {
					t.Fatalf("assignment diverged from golden fixture %s\ngot:\n%s\nwant:\n%s",
						path, pretty, want)
				}
			})
		}
	}
}

// TestTightFixtureForcesRelaxations keeps the tight fixture honest: it is
// only worth pinning while Algorithm 1 needs both of its relaxations on
// it and each contender needs at least one.
func TestTightFixtureForcesRelaxations(t *testing.T) {
	for _, algo := range []scheduler.Algorithm{core.NewTrafficAware(1), scheduler.RStorm{}, scheduler.Hetero{}} {
		in := tightInput(t)
		in.Probe = decision.NewBuilder()
		if _, err := algo.Schedule(in); err != nil {
			t.Fatal(err)
		}
		countOnly, capacity := 0, 0
		for _, p := range in.Probe.Report().Placements {
			switch {
			case p.RelaxedCapacity:
				capacity++
			case p.RelaxedCount:
				countOnly++
			}
		}
		t.Logf("%s: %d count-only relaxations, %d capacity relaxations", algo.Name(), countOnly, capacity)
		if capacity == 0 || (algo.Name() == "tstorm" && countOnly == 0) {
			t.Errorf("%s: fixture no longer forces its relaxations (count-only %d, capacity %d)", algo.Name(), countOnly, capacity)
		}
	}
}
