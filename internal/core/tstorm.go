// Package core implements the paper's contribution: the traffic-aware
// online scheduling algorithm (Algorithm 1) with its consolidation factor
// γ and capacity constraints, the schedule generator daemon that runs it
// periodically (and immediately on overload) with hot-swapping of
// algorithms and on-the-fly parameter changes, and the thin custom
// scheduler that fetches generated schedules and applies them to the
// cluster.
package core

import (
	"fmt"
	"math"
	"sort"

	"tstorm/internal/cluster"
	"tstorm/internal/decision"
	"tstorm/internal/loaddb"
	"tstorm/internal/scheduler"
	"tstorm/internal/topology"
)

// TrafficAware is Algorithm 1 of the paper. Executors are sorted in
// descending order of their total (incoming + outgoing) traffic, and each
// is assigned to the feasible slot that minimizes the incremental
// inter-node traffic, subject to three per-node constraints:
//
//  1. executors of one topology occupy at most one slot per node;
//  2. total assigned workload stays within C_k (Constraints.CPUFraction
//     × the node's physical capacity);
//  3. the executor count stays within γ·N_e/K (the consolidation factor).
//
// If no slot satisfies every constraint, the constraints are relaxed
// progressively (first the count cap, then capacity), so the algorithm is
// total; relaxations are reported in the Stats.
type TrafficAware struct {
	// Gamma is the consolidation factor γ (≥ 1). 1 spreads executors
	// almost evenly over all nodes; larger values consolidate onto fewer
	// nodes.
	Gamma float64
	// DisableTrafficOrder skips line 2 of Algorithm 1 (the descending
	// total-traffic sort) and places executors in declaration order
	// instead — an ablation isolating the sort's contribution.
	DisableTrafficOrder bool

	// LastStats records diagnostics of the most recent Schedule call.
	LastStats Stats
}

// Stats reports diagnostics of one scheduling run.
type Stats struct {
	// Relaxations counts executors that needed constraint relaxation.
	Relaxations int
	// InterNodeTraffic is the objective value of the produced assignment
	// (sum of traffic rates crossing node boundaries).
	InterNodeTraffic float64
	// NodesUsed is the number of distinct nodes in the assignment.
	NodesUsed int
}

var _ scheduler.Algorithm = (*TrafficAware)(nil)

// NewTrafficAware returns the algorithm with the given consolidation
// factor.
func NewTrafficAware(gamma float64) *TrafficAware {
	return &TrafficAware{Gamma: gamma}
}

// Name returns "tstorm".
func (t *TrafficAware) Name() string { return "tstorm" }

// Schedule runs Algorithm 1: it fixes the placement order (line 2) and
// hands the greedy itself — score, constraints, relaxation — to the
// placement kernel shared with the arena contenders.
func (t *TrafficAware) Schedule(in *scheduler.Input) (*cluster.Assignment, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if t.Gamma < 1 {
		return nil, fmt.Errorf("core: consolidation factor γ=%v must be ≥ 1", t.Gamma)
	}
	load := in.Load
	if load == nil {
		load = &loaddb.Snapshot{}
	}

	ne := in.NumExecutors()
	p := scheduler.Policy{
		Algorithm: t.Name(),
		Executors: make([]topology.ExecutorID, 0, ne),
		Demands:   make([]scheduler.Demand, 0, ne),
		Traffic:   make([]float64, 0, ne),
		// Only the CPU dimension matters here — Algorithm 1 is deliberately
		// blind to memory and bandwidth, which is exactly what the
		// rstorm/hetero contenders exist to contrast. The usable-capacity
		// fraction lives in the input's Constraints block.
		Enforce:        scheduler.LimitCPU | scheduler.LimitCount,
		Relax:          []scheduler.Limit{scheduler.LimitCount, scheduler.LimitCPU},
		Gamma:          t.Gamma,
		OneSlotPerNode: true,
	}
	// Collect executors of all topologies (the paper's E over M
	// topologies) with loads l_i and total traffic.
	totalTraffic := load.TotalTraffic()
	for _, top := range in.Topologies {
		for _, e := range top.Executors() {
			p.Executors = append(p.Executors, e)
			p.Demands = append(p.Demands, scheduler.Demand{CPUMHz: load.ExecLoad[e]})
			p.Traffic = append(p.Traffic, totalTraffic[e])
		}
	}
	// Line 2: sort executors by descending total traffic; ties broken by
	// executor identity for determinism.
	if !t.DisableTrafficOrder {
		p.SortStable(func(i, j int) bool {
			if p.Traffic[i] != p.Traffic[j] {
				return p.Traffic[i] > p.Traffic[j]
			}
			return p.Executors[i].Less(p.Executors[j])
		})
	}

	a, relaxations, err := scheduler.Place(in, p)
	t.LastStats = Stats{Relaxations: relaxations}
	if err != nil {
		return nil, err
	}
	t.LastStats.NodesUsed = a.NumUsedNodes()
	t.LastStats.InterNodeTraffic = InterNodeTraffic(a, load)
	return a, nil
}

// InterNodeTraffic computes the objective of the paper's scheduling
// problem: the total traffic rate crossing node boundaries under the
// given assignment.
func InterNodeTraffic(a *cluster.Assignment, load *loaddb.Snapshot) float64 {
	return decision.InterNodeRate(a, load)
}

// InterProcessTraffic computes the traffic between distinct slots on the
// same node (what constraint 1 drives to zero).
func InterProcessTraffic(a *cluster.Assignment, load *loaddb.Snapshot) float64 {
	total := 0.0
	for _, f := range load.Flows {
		sa, okA := a.Slot(f.From)
		sb, okB := a.Slot(f.To)
		if okA && okB && sa.Node == sb.Node && sa != sb {
			total += f.Rate
		}
	}
	return total
}

// MaxNodeLoad returns the highest per-node workload sum (MHz) under the
// assignment, and that node's ID.
func MaxNodeLoad(a *cluster.Assignment, load *loaddb.Snapshot) (cluster.NodeID, float64) {
	perNode := make(map[cluster.NodeID]float64)
	for e, mhz := range load.ExecLoad {
		if s, ok := a.Slot(e); ok {
			perNode[s.Node] += mhz
		}
	}
	var worst cluster.NodeID
	worstLoad := math.Inf(-1)
	nodes := make([]cluster.NodeID, 0, len(perNode))
	for n := range perNode {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		if perNode[n] > worstLoad {
			worst, worstLoad = n, perNode[n]
		}
	}
	if math.IsInf(worstLoad, -1) {
		return "", 0
	}
	return worst, worstLoad
}
