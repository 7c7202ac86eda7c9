package scheduler

import (
	"fmt"

	"tstorm/internal/cluster"
)

// RoundRobin is Storm's default (even) scheduler: each topology's
// executors are distributed round-robin over the number of workers its
// user requested (N_u), and those workers are spread evenly over the
// cluster's available slots, interleaving nodes. It ignores runtime load
// and traffic entirely, and — as the paper observes — always ends up using
// all available worker nodes.
type RoundRobin struct{}

var _ Algorithm = RoundRobin{}

// Name returns "default".
func (RoundRobin) Name() string { return "default" }

// Schedule assigns each topology independently.
func (RoundRobin) Schedule(in *Input) (*cluster.Assignment, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	a := cluster.NewAssignment(0)
	free := in.InterleavedFreeSlots()
	for _, top := range in.Topologies {
		nw := top.NumWorkers()
		if nw > len(free) {
			nw = len(free)
		}
		if nw == 0 {
			return nil, fmt.Errorf("scheduler: no free slots for topology %q", top.Name())
		}
		workers := free[:nw]
		free = free[nw:]
		assignRoundRobin(a, top.Executors(), workers)
	}
	recordDecisions(in, "default", a)
	return a, nil
}

// TStormInitial is the modified default scheduler T-Storm applies when a
// topology is first launched and no runtime load information exists
// (§IV-C): the number of workers is N*_w = min(N_u, N_w) where N_w is the
// number of worker nodes with available slots, and the workers are placed
// one per node, so that executors of a topology occupy at most one slot
// per node from the start.
type TStormInitial struct{}

var _ Algorithm = TStormInitial{}

// Name returns "tstorm-initial".
func (TStormInitial) Name() string { return "tstorm-initial" }

// Schedule assigns each topology independently, one worker per node.
func (TStormInitial) Schedule(in *Input) (*cluster.Assignment, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	a := cluster.NewAssignment(0)
	free := in.InterleavedFreeSlots()
	taken := make(map[cluster.SlotID]bool)
	for _, top := range in.Topologies {
		// One candidate slot per node, the first free one.
		var perNode []cluster.SlotID
		seen := make(map[cluster.NodeID]bool)
		for _, s := range free {
			if taken[s] || seen[s.Node] {
				continue
			}
			seen[s.Node] = true
			perNode = append(perNode, s)
		}
		nw := top.NumWorkers()
		if nw > len(perNode) {
			nw = len(perNode)
		}
		if nw == 0 {
			return nil, fmt.Errorf("scheduler: no free nodes for topology %q", top.Name())
		}
		workers := perNode[:nw]
		for _, s := range workers {
			taken[s] = true
		}
		assignRoundRobin(a, top.Executors(), workers)
	}
	recordDecisions(in, "tstorm-initial", a)
	return a, nil
}
