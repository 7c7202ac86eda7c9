package scheduler

import (
	"math"

	"tstorm/internal/cluster"
	"tstorm/internal/topology"
)

// RStorm is the resource-aware scheduler of Peng et al. (R-Storm,
// Middleware'15), re-implemented from their description over this repo's
// multi-resource Input: executors walk in BFS order from the spouts (so
// stream-adjacent components are considered back to back), and each is
// packed onto the feasible node minimizing the Euclidean distance between
// its demand vector and the node's remaining-availability vector in
// normalized (CPU, memory, bandwidth) space — a 3D best-fit that keeps
// communicating executors clustered while never overcommitting any
// dimension. It is the arena's traffic-blind contrast to Algorithm 1:
// R-Storm sees three resources but no traffic matrix, T-Storm sees
// traffic but only CPU.
//
// If no slot fits, the resource dimensions are relaxed progressively
// (bandwidth, then memory, then CPU) so the algorithm is total — the same
// contract Algorithm 1's relaxation path provides.
type RStorm struct{}

var _ Algorithm = RStorm{}

// Name returns "rstorm".
func (RStorm) Name() string { return "rstorm" }

// rstormScore is R-Storm's packing objective, negated so the tightest fit
// scores highest: the Euclidean distance between the demand vector and the
// node's remaining-availability vector, each dimension normalized by the
// node's usable capacity so a 100 MB memory gap and a 100 MB/s bandwidth
// gap aren't conflated.
func rstormScore(n *NodeState, d Demand) float64 {
	dist := 0.0
	for _, dim := range [3]struct{ limit, used, want float64 }{
		{n.CPULimit, n.CPU, d.CPUMHz},
		{n.MemLimit, n.Mem, d.MemMB},
		{n.NetLimit, n.Net, d.NetMBps},
	} {
		if dim.limit <= 0 {
			continue
		}
		gap := (dim.limit - dim.used - dim.want) / dim.limit
		dist += gap * gap
	}
	return -math.Sqrt(dist)
}

// resourcePolicy is the part of the placement policy rstorm and hetero
// share: all three resource dimensions enforced, relaxed bandwidth first,
// then memory, then CPU.
func resourcePolicy(in *Input, algorithm string, execs []topology.ExecutorID, score func(*NodeState, Demand) float64) Policy {
	p := Policy{
		Algorithm: algorithm,
		Executors: execs,
		Demands:   make([]Demand, len(execs)),
		Enforce:   LimitCPU | LimitMem | LimitNet,
		Relax:     []Limit{LimitNet, LimitMem, LimitCPU},
		Score:     score,
	}
	for i, e := range execs {
		p.Demands[i] = in.DemandFor(e)
	}
	return p
}

// Schedule packs every executor by 3D min-distance best fit.
func (RStorm) Schedule(in *Input) (*cluster.Assignment, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	var execs []topology.ExecutorID
	for _, top := range in.Topologies {
		execs = append(execs, bfsOrderedExecutors(top)...)
	}
	a, _, err := Place(in, resourcePolicy(in, "rstorm", execs, rstormScore))
	return a, err
}
