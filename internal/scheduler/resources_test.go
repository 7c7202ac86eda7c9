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
// and memory is the monitored footprint when present, else the baseline —
// also for an executor the snapshot has never seen.
func TestDeriveDemands(t *testing.T) {
	spout := topology.ExecutorID{Topology: "d", Component: "spout", Index: 0}
	mid := topology.ExecutorID{Topology: "d", Component: "mid", Index: 0}
	unknown := topology.ExecutorID{Topology: "other", Component: "x", Index: 0}

	db := loaddb.New(1)
	db.UpdateExecutorLoad(spout, 1200)
	db.UpdateTraffic(spout, mid, 1e6) // 1M tuples/s
	db.UpdateExecutorMemory(mid, 512)

	demands := func(load *loaddb.Snapshot, execs ...topology.ExecutorID) []Demand {
		return resourcePolicy(&Input{Load: load}, "rstorm", execs, rstormScore).Demands
	}
	ds := demands(db.Snapshot(), spout, mid, unknown)
	// 1M tuples/s × 256 B/tuple = 256 MB/s.
	if want := (Demand{CPUMHz: 1200, MemMB: DefaultBaselineMemMB, NetMBps: 256}); ds[0] != want {
		t.Fatalf("spout demand = %+v, want %+v", ds[0], want)
	}
	if want := (Demand{MemMB: 512, NetMBps: 256}); ds[1] != want {
		t.Fatalf("mid demand = %+v, want %+v", ds[1], want)
	}
	if want := (Demand{MemMB: DefaultBaselineMemMB}); ds[2] != want {
		t.Fatalf("unknown demand = %+v, want %+v", ds[2], want)
	}
	if got := demands(nil, spout); got[0] != (Demand{MemMB: DefaultBaselineMemMB}) {
		t.Fatalf("demand without a snapshot = %+v, want baseline", got[0])
	}
}
