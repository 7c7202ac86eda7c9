package core

import (
	"fmt"
	"sort"

	"tstorm/internal/cluster"
	"tstorm/internal/decision"
	"tstorm/internal/loaddb"
	"tstorm/internal/scheduler"
	"tstorm/internal/scheduler/schedtest"
	"tstorm/internal/topology"
)

// referenceSchedule is the map-based Algorithm 1 this package shipped
// before the dense placement kernel, kept verbatim (receiver turned into a
// parameter) as the oracle of the differential and fuzz tests: the kernel
// must reproduce its assignment, its Stats and its decision report.
func referenceSchedule(t *TrafficAware, in *scheduler.Input) (*cluster.Assignment, error) {
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
	// The usable-capacity fraction lives in the input's Constraints block
	// (0 selects full capacity); only the CPU dimension matters here —
	// Algorithm 1 is deliberately blind to memory and bandwidth, which is
	// exactly what the rstorm/hetero contenders exist to contrast.
	capFrac := in.Constraints.CPUFraction
	if capFrac == 0 {
		capFrac = 1
	}

	// Collect executors of all topologies (the paper's E over M
	// topologies) with loads l_i and pairwise traffic r_ii'.
	var execs []topology.ExecutorID
	for _, top := range in.Topologies {
		execs = append(execs, top.Executors()...)
	}
	ne := len(execs)
	// The one line that is not the parent's: K counts the nodes that still
	// have a free slot (the parent counted fenced-off nodes too).
	k := schedtest.UsableNodes(in)
	// The paper's per-node executor cap γ·Ne/K, floored at one: a node
	// that may host no executor at all would make every small topology
	// (Ne < K) infeasible and hand control to the relaxation path, which
	// packs — the opposite of the γ=1 "almost even distribution" intent.
	countCap := t.Gamma * float64(ne) / float64(k)
	if countCap < 1 {
		countCap = 1
	}

	totalTraffic := load.TotalTraffic()
	// Line 2: sort executors by descending total traffic; ties broken by
	// executor identity for determinism.
	if !t.DisableTrafficOrder {
		sort.SliceStable(execs, func(i, j int) bool {
			ti, tj := totalTraffic[execs[i]], totalTraffic[execs[j]]
			if ti != tj {
				return ti > tj
			}
			return execs[i].Less(execs[j])
		})
	}

	// Pairwise traffic, symmetrized: r(i,i') + r(i',i).
	pair := make(map[loaddb.FlowKey]float64, len(load.Flows))
	for _, f := range load.Flows {
		pair[loaddb.FlowKey{From: f.From, To: f.To}] += f.Rate
		pair[loaddb.FlowKey{From: f.To, To: f.From}] += f.Rate
	}

	// Mutable assignment state.
	slots := in.FreeSlots()
	nodeLoad := make(map[cluster.NodeID]float64)
	nodeCount := make(map[cluster.NodeID]int)
	// topoSlot[node][topology] = slot chosen for that topology on that node.
	topoSlot := make(map[cluster.NodeID]map[string]cluster.SlotID)
	slotTopo := make(map[cluster.SlotID]string) // slot → owning topology
	// trafficToNode[i] is computed per executor during its placement.
	placedOnNode := make(map[cluster.NodeID][]topology.ExecutorID)

	a := cluster.NewAssignment(0)

	capacityOf := func(n cluster.NodeID) float64 {
		node, _ := in.Cluster.Node(n)
		return node.CapacityMHz() * capFrac
	}

	probe := in.Probe
	if probe != nil {
		probe.Begin(t.Name(), ne, k)
		probe.Policy(t.Gamma, capFrac, countCap)
	}

	for rank, e := range execs {
		li := load.ExecLoad[e]
		// The slot a topology must reuse per node, if any.
		type candidate struct {
			slot cluster.SlotID
			gain float64 // co-located traffic (maximize = minimize incremental)
		}
		// Co-located traffic depends only on the node, not the slot:
		// cache it per node across candidate slots.
		gainCache := make(map[cluster.NodeID]float64)
		nodeGain := func(n cluster.NodeID) float64 {
			if g, ok := gainCache[n]; ok {
				return g
			}
			g := 0.0
			for _, other := range placedOnNode[n] {
				g += pair[loaddb.FlowKey{From: e, To: other}]
			}
			gainCache[n] = g
			return g
		}
		// classify reproduces eval's checks in order and names the first
		// failing constraint — the probe's per-candidate verdict.
		classify := func(s cluster.SlotID, relaxCount, relaxCapacity bool) decision.Constraint {
			owner, owned := slotTopo[s]
			if owned && owner != e.Topology {
				return decision.RejectedSlot // slot belongs to another topology
			}
			ts := topoSlot[s.Node][e.Topology]
			if ts != (cluster.SlotID{}) && ts != s {
				return decision.RejectedSlot // constraint 1: one slot per topology per node
			}
			if !relaxCapacity && nodeLoad[s.Node]+li > capacityOf(s.Node) {
				return decision.RejectedCapacity // constraint 2
			}
			if !relaxCount && float64(nodeCount[s.Node]+1) > countCap {
				return decision.RejectedCount // constraint 3
			}
			return ""
		}
		var opts []decision.SlotOption
		eval := func(relaxCount, relaxCapacity, record bool) (cluster.SlotID, bool) {
			var best candidate
			found := false
			for _, s := range slots {
				rejected := classify(s, relaxCount, relaxCapacity)
				if record {
					opts = append(opts, decision.SlotOption{
						Slot: s, Gain: nodeGain(s.Node), Rejected: rejected,
					})
				}
				if rejected != "" {
					continue
				}
				gain := nodeGain(s.Node)
				if !found || gain > best.gain {
					best = candidate{slot: s, gain: gain}
					found = true
				}
			}
			return best.slot, found
		}

		slot, ok := eval(false, false, probe != nil)
		relaxedCount, relaxedCapacity := false, false
		if !ok {
			relaxedCount = true
			slot, ok = eval(true, false, false)
		}
		if !ok {
			relaxedCapacity = true
			slot, ok = eval(true, true, false)
		}
		if !ok {
			return nil, fmt.Errorf("core: no slot available for executor %v", e)
		}
		if probe != nil {
			for i := range opts {
				if opts[i].Slot == slot {
					opts[i].Chosen = true
				}
			}
			probe.Place(decision.Placement{
				Executor:        e,
				Rank:            rank,
				Traffic:         totalTraffic[e],
				Load:            li,
				Slot:            slot,
				Gain:            nodeGain(slot.Node),
				RelaxedCount:    relaxedCount,
				RelaxedCapacity: relaxedCapacity,
				Options:         opts,
			})
		}
		a.Assign(e, slot)
		nodeLoad[slot.Node] += li
		nodeCount[slot.Node]++
		placedOnNode[slot.Node] = append(placedOnNode[slot.Node], e)
		if topoSlot[slot.Node] == nil {
			topoSlot[slot.Node] = make(map[string]cluster.SlotID)
		}
		topoSlot[slot.Node][e.Topology] = slot
		slotTopo[slot] = e.Topology
	}

	if probe != nil {
		probe.Finish(a, load)
	}
	return a, nil
}
