// Package schedtest generates random scheduling inputs for the
// differential and fuzz tests that hold the placement kernel to the
// map-based reference implementations. It is test support: nothing outside
// _test files imports it.
package schedtest

import (
	"fmt"
	"math/rand"

	"tstorm/internal/cluster"
	"tstorm/internal/loaddb"
	"tstorm/internal/scheduler"
	"tstorm/internal/topology"
)

// Source yields the generator's choices: a value in [0, n).
type Source func(n int) int

// Rand draws the choices from a seeded generator.
func Rand(seed int64) Source {
	return rand.New(rand.NewSource(seed)).Intn
}

// Bytes draws the choices from fuzz data, two bytes a choice, and answers
// 0 once the data runs out — so every byte string is a valid input and a
// mutation of one byte changes one choice.
func Bytes(data []byte) Source {
	return func(n int) int {
		if len(data) < 2 {
			return 0
		}
		v := int(data[0])<<8 | int(data[1])
		data = data[2:]
		return v % n
	}
}

// Case is one generated scheduling problem for Algorithm 1 and the
// contenders.
type Case struct {
	Input               *scheduler.Input
	Gamma               float64
	DisableTrafficOrder bool
}

// Generate builds a valid input: 1–3 topologies, 2–40 unequal nodes, some
// slots (now and then a whole node) occupied, CPU loads from idle to tight
// enough to force relaxations, and a hand-built snapshot whose flows carry
// non-integer rates, repeat and reverse one another, and sometimes name an
// executor that is not part of the input.
func Generate(next Source) (Case, error) {
	nodes := make([]cluster.Node, 2+next(39))
	for i := range nodes {
		nodes[i] = cluster.Node{
			ID:       cluster.NodeID(fmt.Sprintf("n%02d", i)),
			Cores:    1 + next(4),
			CoreMHz:  float64(500 + 250*next(9)),
			NumSlots: 1 + next(4),
			MemMB:    256 << next(4),
			NetMBps:  []float64{0, 0.05, 1, 125}[next(4)],
		}
	}
	cl, err := cluster.New(nodes)
	if err != nil {
		return Case{}, err
	}

	var tops []*topology.Topology
	var execs []topology.ExecutorID
	for i, n := 0, 1+next(3); i < n; i++ {
		b := topology.NewBuilder(fmt.Sprintf("t%d", i), 1+next(12))
		b.SetAckers(next(3))
		b.Spout("s", 1+next(4)).Output("default", "v")
		b.Bolt("m", 1+next(10)).Shuffle("s").Output("default", "v")
		b.Bolt("z", 1+next(10)).Shuffle("m")
		top, err := b.Build()
		if err != nil {
			return Case{}, err
		}
		tops = append(tops, top)
		execs = append(execs, top.Executors()...)
	}

	// Mean load per executor, as a share of the mean node's capacity split
	// evenly: 0 leaves the cluster idle, 3 overcommits it.
	pressure := float64(next(4))
	total := 0.0
	for _, n := range nodes {
		total += n.CapacityMHz()
	}
	meanLoad := pressure * total / float64(len(execs)) / 2
	snap := &loaddb.Snapshot{ExecLoad: make(map[topology.ExecutorID]float64)}
	for _, e := range execs {
		if next(8) > 0 { // now and then an executor no monitor has seen
			snap.ExecLoad[e] = meanLoad * float64(next(2000)) / 1000.3
		}
		if next(4) == 0 {
			if snap.ExecMem == nil {
				snap.ExecMem = make(map[topology.ExecutorID]float64)
			}
			snap.ExecMem[e] = float64(next(600)) / 1.7
		}
	}
	stranger := topology.ExecutorID{Topology: "gone", Component: "x", Index: next(3)}
	pick := func() topology.ExecutorID {
		if next(12) == 0 {
			return stranger
		}
		return execs[next(len(execs))]
	}
	for i, n := 0, next(4*len(execs)+1); i < n; i++ {
		f := loaddb.Flow{From: pick(), To: pick(), Rate: float64(next(100000)) / 37.3}
		snap.Flows = append(snap.Flows, f)
		switch next(6) {
		case 0: // the same pair again
			snap.Flows = append(snap.Flows, loaddb.Flow{From: f.From, To: f.To, Rate: float64(next(1000)) / 7.1})
		case 1: // and its reverse
			snap.Flows = append(snap.Flows, loaddb.Flow{From: f.To, To: f.From, Rate: float64(next(1000)) / 3.3})
		}
	}

	in := scheduler.NewInput(tops, cl, snap, []float64{0, 0.5, 0.9, 1}[next(4)])
	in.Constraints.MemFraction = []float64{0, 0.25, 1}[next(3)]
	in.Constraints.NetFraction = []float64{0, 0.5}[next(2)]
	if next(5) == 0 {
		in.Demands = nil // a hand-built input: DemandFor falls back
	}
	for _, n := range nodes {
		switch next(6) {
		case 0:
			in.OccupyNode(n.ID)
		case 1:
			in.Occupied[cluster.SlotID{Node: n.ID, Port: cluster.BasePort + next(n.NumSlots)}] = true
		}
	}
	return Case{
		Input:               in,
		Gamma:               1 + float64(next(500))/100,
		DisableTrafficOrder: next(4) == 0,
	}, nil
}

// UsableNodes counts the nodes with at least one free slot — the K the
// kernel-backed algorithms use. The reference implementations take it in
// place of the Cluster.NumNodes() they shipped with.
func UsableNodes(in *scheduler.Input) int {
	seen := make(map[cluster.NodeID]bool)
	for _, s := range in.FreeSlots() {
		seen[s.Node] = true
	}
	return len(seen)
}
