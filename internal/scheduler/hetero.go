package scheduler

import (
	"tstorm/internal/cluster"
	"tstorm/internal/topology"
)

// Hetero is a heterogeneous-cluster throughput maximizer in the style of
// Nasiri et al.: executors are placed heaviest-CPU-first, and each goes
// to the feasible slot on the fastest node — per-core clock speed first,
// remaining usable CPU as the tie-break — so on a cluster of unequal
// machines the hot executors monopolize the fast cores and the long pole
// of every tuple tree shortens. On a uniform cluster it degenerates to
// worst-fit CPU balancing, which is exactly the contrast the arena wants
// against rstorm's best-fit packing and Algorithm 1's traffic chasing.
//
// Feasibility spans all three resource dimensions of the input's
// Constraints, with per-dimension rejection labels on the probe; the
// same progressive relaxation as rstorm keeps the algorithm total.
type Hetero struct{}

var _ Algorithm = Hetero{}

// Name returns "hetero".
func (Hetero) Name() string { return "hetero" }

// heteroScore is the node's speed-weighted headroom: per-core clock speed
// scaled by the fraction of usable CPU still free after the placement.
// Fast idle nodes dominate, fast busy nodes fade, slow nodes lose.
func heteroScore(n *NodeState, d Demand) float64 {
	if n.CPULimit <= 0 {
		return 0
	}
	headroom := (n.CPULimit - n.CPU - d.CPUMHz) / n.CPULimit
	return n.CoreMHz * headroom
}

// Schedule places executors heaviest-first on the fastest feasible node.
func (Hetero) Schedule(in *Input) (*cluster.Assignment, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	var execs []topology.ExecutorID
	for _, top := range in.Topologies {
		execs = append(execs, top.Executors()...)
	}
	p := resourcePolicy(in, "hetero", execs, heteroScore)
	p.SortStable(func(i, j int) bool {
		if p.Demands[i].CPUMHz != p.Demands[j].CPUMHz {
			return p.Demands[i].CPUMHz > p.Demands[j].CPUMHz
		}
		return p.Executors[i].Less(p.Executors[j])
	})
	a, _, err := Place(in, p)
	return a, err
}
