package scheduler

// The eager demand derivation NewInput ran before the resource-aware
// policies derived their own demands, kept verbatim as the oracle the
// dense derivation must match bit for bit, and DemandFor, which read it,
// for the reference implementations in reference_test.go.

import (
	"math"
	"math/rand/v2"
	"testing"

	"tstorm/internal/cluster"
	"tstorm/internal/loaddb"
	"tstorm/internal/topology"
)

// DeriveDemands estimates every executor's demand from the load
// snapshot: CPU is the smoothed workload, network is total traffic
// scaled by DefaultBytesPerTuple, and memory is the monitored footprint when
// one exists, else DefaultBaselineMemMB. Executors absent from the snapshot get
// zero CPU/network and baseline memory — matching how Algorithm 1 has
// always treated unknown load. load may be nil.
func DeriveDemands(topos []*topology.Topology, load *loaddb.Snapshot) map[topology.ExecutorID]Demand {
	if load == nil {
		load = &loaddb.Snapshot{}
	}
	total := load.TotalTraffic()
	out := make(map[topology.ExecutorID]Demand)
	for _, top := range topos {
		for _, e := range top.Executors() {
			d := Demand{
				CPUMHz:  load.ExecLoad[e],
				MemMB:   DefaultBaselineMemMB,
				NetMBps: total[e] * DefaultBytesPerTuple / 1e6,
			}
			if mb, ok := load.ExecMem[e]; ok && mb > 0 {
				d.MemMB = mb
			}
			out[e] = d
		}
	}
	return out
}

// DemandFor reads one executor's demand as the reference derives it for
// the input, falling back to the zero-CPU / baseline-memory estimate for
// an executor outside the input's topologies.
func (in *Input) DemandFor(e topology.ExecutorID) Demand {
	if d, ok := DeriveDemands(in.Topologies, in.Load)[e]; ok {
		return d
	}
	var load float64
	if in.Load != nil {
		load = in.Load.ExecLoad[e]
	}
	return Demand{CPUMHz: load, MemMB: DefaultBaselineMemMB}
}

// TestDemandsMatchReference drives a load database through seeded random
// sequences of monitor writes and forgets, and after every step checks
// that the demands rstorm and hetero place with equal the reference's,
// float bit for float bit, in each policy's own executor order.
func TestDemandsMatchReference(t *testing.T) {
	cl, err := cluster.Uniform(4, 4, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		var tops []*topology.Topology
		var execs []topology.ExecutorID
		for _, name := range []string{"a", "b"} {
			top := buildChain(t, name, 3, 1+rng.IntN(3), 1+rng.IntN(4))
			tops = append(tops, top)
			execs = append(execs, top.Executors()...)
		}
		// Flows may name an executor of no input topology.
		pool := append(execs, topology.ExecutorID{Topology: "gone", Component: "x"})
		pick := func() topology.ExecutorID { return pool[rng.IntN(len(pool))] }
		rate := func() float64 { return float64(rng.IntN(1<<20)) / 7.3 }
		db := loaddb.New([]float64{0.5, 1, 0.3}[rng.IntN(3)])
		for step := 0; step < 60; step++ {
			switch rng.IntN(6) {
			case 0:
				db.UpdateExecutorLoad(pick(), rate())
			case 1:
				db.UpdateExecutorMemory(pick(), rate()-1e4)
			case 2:
				db.UpdateTraffic(pick(), pick(), rate())
			case 3:
				loads := map[topology.ExecutorID]float64{pick(): rate(), pick(): rate()}
				flows := map[loaddb.FlowKey]float64{{From: pick(), To: pick()}: rate(), {From: pick(), To: pick()}: rate()}
				db.ApplyWindow(loads, flows)
			case 4:
				db.ApplyMemory(map[topology.ExecutorID]float64{pick(): rate()})
			case 5:
				if rng.IntN(4) == 0 {
					db.Forget([]string{"a", "b", "gone"}[rng.IntN(3)])
				}
			}
			in := NewInput(tops, cl, db.Snapshot(), 0)
			want := DeriveDemands(tops, in.Load)
			for _, p := range []Policy{
				resourcePolicy(in, "rstorm", append(bfsOrderedExecutors(tops[0]), bfsOrderedExecutors(tops[1])...), rstormScore),
				resourcePolicy(in, "hetero", execs, heteroScore),
			} {
				for i, e := range p.Executors {
					got, w := p.Demands[i], want[e]
					if math.Float64bits(got.CPUMHz) != math.Float64bits(w.CPUMHz) ||
						math.Float64bits(got.MemMB) != math.Float64bits(w.MemMB) ||
						math.Float64bits(got.NetMBps) != math.Float64bits(w.NetMBps) {
						t.Fatalf("seed %d step %d: %s demand of %v = %+v, reference %+v", seed, step, p.Algorithm, e, got, w)
					}
				}
			}
		}
	}
}
