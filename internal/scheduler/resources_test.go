package scheduler

import (
	"strings"
	"testing"

	"tstorm/internal/cluster"
	"tstorm/internal/loaddb"
	"tstorm/internal/topology"
)

// TestConstraintsConvention pins the single fraction convention shared by
// validation, documentation, and defaults: fractions live in [0,1], and 0
// selects full capacity. The old scalar CapacityFraction documented "0
// means 1.0" while its error string claimed "(0,1]" — this test keeps the
// two from drifting apart again.
func TestConstraintsConvention(t *testing.T) {
	n := cluster.Node{ID: "n", Cores: 4, CoreMHz: 2000, NumSlots: 4,
		MemMB: 4096, NetMBps: 250}

	// 0 selects full capacity in every dimension, and validates.
	var zero Constraints
	if err := zero.Validate(); err != nil {
		t.Fatalf("zero constraints must validate (0 selects full capacity): %v", err)
	}
	if got := zero.CPULimitMHz(n); got != n.CapacityMHz() {
		t.Fatalf("CPULimitMHz at fraction 0 = %v, want full %v", got, n.CapacityMHz())
	}
	if got := zero.MemLimitMB(n); got != 4096 {
		t.Fatalf("MemLimitMB at fraction 0 = %v, want full 4096", got)
	}
	if got := zero.NetLimitMBps(n); got != 250 {
		t.Fatalf("NetLimitMBps at fraction 0 = %v, want full 250", got)
	}

	// Explicit fractions scale each dimension independently.
	c := Constraints{CPUFraction: 0.5, MemFraction: 0.25, NetFraction: 0.1}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.CPULimitMHz(n); got != 4000 {
		t.Fatalf("CPULimitMHz = %v, want 4000", got)
	}
	if got := c.MemLimitMB(n); got != 1024 {
		t.Fatalf("MemLimitMB = %v, want 1024", got)
	}
	if got := c.NetLimitMBps(n); got != 25 {
		t.Fatalf("NetLimitMBps = %v, want 25", got)
	}

	// Out-of-range fractions fail in every dimension, and the error text
	// states the documented convention rather than contradicting it.
	for _, bad := range []Constraints{
		{CPUFraction: 1.5},
		{CPUFraction: -0.1},
		{MemFraction: 2},
		{NetFraction: -1},
	} {
		err := bad.Validate()
		if err == nil {
			t.Fatalf("constraints %+v validated", bad)
		}
		if !strings.Contains(err.Error(), "out of [0,1] (0 selects full capacity)") {
			t.Fatalf("error %q does not state the fraction convention", err)
		}
	}

	// Input.Validate reports the same convention, so scheduler inputs and
	// standalone constraints can never disagree about what 0 means.
	top := buildChain(t, "t", 1, 1, 1)
	cl, err := cluster.New([]cluster.Node{n})
	if err != nil {
		t.Fatal(err)
	}
	in := &Input{Topologies: []*topology.Topology{top}, Cluster: cl,
		Constraints: Constraints{CPUFraction: 1.5}}
	verr := in.Validate()
	if verr == nil {
		t.Fatal("out-of-range input validated")
	}
	if !strings.Contains(verr.Error(), "out of [0,1] (0 selects full capacity)") {
		t.Fatalf("Input.Validate error %q does not state the fraction convention", verr)
	}
}

// TestDeriveDemands checks the snapshot-to-demand derivation: CPU is the
// smoothed workload, network is total traffic scaled by DefaultBytesPerTuple,
// and memory is the monitored footprint when present, else the baseline.
func TestDeriveDemands(t *testing.T) {
	top := buildChain(t, "d", 2, 1, 1) // spout, mid, sink + 2 ackers
	spout := topology.ExecutorID{Topology: "d", Component: "spout", Index: 0}
	mid := topology.ExecutorID{Topology: "d", Component: "mid", Index: 0}

	db := loaddb.New(1)
	db.UpdateExecutorLoad(spout, 1200)
	db.UpdateTraffic(spout, mid, 1e6) // 1M tuples/s
	db.UpdateExecutorMemory(mid, 512)
	snap := db.Snapshot()

	demands := DeriveDemands([]*topology.Topology{top}, snap)
	if len(demands) != top.NumExecutors() {
		t.Fatalf("derived %d demands, want %d", len(demands), top.NumExecutors())
	}
	ds := demands[spout]
	if ds.CPUMHz != 1200 {
		t.Fatalf("spout CPU = %v, want 1200", ds.CPUMHz)
	}
	// 1M tuples/s × 256 B/tuple = 256 MB/s.
	if ds.NetMBps != 256 {
		t.Fatalf("spout net = %v MB/s, want 256", ds.NetMBps)
	}
	if ds.MemMB != DefaultBaselineMemMB {
		t.Fatalf("spout mem = %v, want baseline %v", ds.MemMB, DefaultBaselineMemMB)
	}
	if dm := demands[mid]; dm.MemMB != 512 {
		t.Fatalf("mid mem = %v, want monitored 512", dm.MemMB)
	}

	// NewInput derives demands itself; DemandFor falls back to baseline
	// memory for executors it has never seen.
	cl, err := cluster.Uniform(2, 4, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInput([]*topology.Topology{top}, cl, snap, 0.9)
	if got := in.DemandFor(spout); got != demands[spout] {
		t.Fatalf("DemandFor(spout) = %+v, want %+v", got, demands[spout])
	}
	unknown := topology.ExecutorID{Topology: "other", Component: "x", Index: 0}
	if got := in.DemandFor(unknown); got.MemMB != DefaultBaselineMemMB || got.CPUMHz != 0 {
		t.Fatalf("DemandFor(unknown) = %+v, want baseline", got)
	}
}
