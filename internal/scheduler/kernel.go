package scheduler

// The dense placement kernel under Algorithm 1 (internal/core), rstorm and
// hetero. All three are the same greedy: walk the executors in some order
// and give each to the best-scoring node whose limits it fits, dropping
// limits one by one when no node fits. A Policy says what differs — the
// order, the score, the limits and the order they are dropped in — and
// Place runs the one loop over state interned to integer indices, so a
// round costs O(F + Ne·K) after the caller's sort instead of a hashed
// lookup per (executor, slot) pair. DESIGN.md §10 ("Placement kernel")
// gives the index layout and the rules that keep the output identical to
// the map-based implementations this replaced.

import (
	"fmt"
	"sort"

	"tstorm/internal/cluster"
	"tstorm/internal/decision"
	"tstorm/internal/loaddb"
	"tstorm/internal/topology"
)

// Limit is a set of per-node limits a placement can be held to.
type Limit uint8

const (
	// LimitCPU is the paper's constraint 2: committed CPU within C_k.
	LimitCPU Limit = 1 << iota
	// LimitMem keeps committed memory within the node's usable MemMB.
	LimitMem
	// LimitNet keeps committed bandwidth within the node's usable NetMBps.
	LimitNet
	// LimitCount is the paper's constraint 3: executors within γ·Ne/K.
	LimitCount
)

// NodeState is one usable node during a round: its limits under the
// input's Constraints and what the placements so far have committed.
type NodeState struct {
	CoreMHz                      float64
	CPULimit, MemLimit, NetLimit float64
	CPU, Mem, Net                float64
	Count                        int

	// The node's free slots are kernel.slots[firstSlot:endSlot]; the first
	// owned of them belong to some topology already. Every policy hands
	// out a node's slots front to back, so the owned ones are a prefix.
	firstSlot, endSlot, owned int32
}

// Policy is what distinguishes one kernel-backed algorithm from another.
type Policy struct {
	// Algorithm labels the decision report and errors.
	Algorithm string
	// Executors is the placement order. Demands runs parallel to it, and so
	// does Traffic (each executor's total rate, for the decision report;
	// nil leaves it zero).
	Executors []topology.ExecutorID
	Demands   []Demand
	Traffic   []float64
	// Enforce is the set of limits a placement must respect. When no node
	// satisfies them, the limits in Relax are dropped one after another
	// until one does.
	Enforce Limit
	Relax   []Limit
	// Gamma is the consolidation factor behind LimitCount: the cap is
	// γ·Ne/K over the K nodes with a free slot, floored at one — a node that may host no executor at all
	// would make every small topology (Ne < K) infeasible and hand control
	// to the relaxation path, which packs — the opposite of the γ=1
	// "almost even distribution" intent.
	Gamma float64
	// OneSlotPerNode makes the decision report reject a node's other slots
	// once the topology holds one there (the paper's constraint 1). Which
	// slot wins does not depend on it: slots are handed out front to back,
	// so a topology's first eligible slot on a node is always the one it
	// already holds.
	OneSlotPerNode bool
	// Score ranks the nodes an executor fits: the highest wins, and of
	// equals the first in FreeSlots() order. Nil selects Algorithm 1's
	// score, the traffic between the executor and those already placed on
	// the node.
	Score func(n *NodeState, d Demand) float64
}

// SortStable reorders the placement order — the executors, with their
// demands and traffic — by less, keeping equals in their current order.
func (p *Policy) SortStable(less func(i, j int) bool) {
	sort.Stable(policyOrder{p, less})
}

type policyOrder struct {
	*Policy
	less func(i, j int) bool
}

func (o policyOrder) Len() int           { return len(o.Executors) }
func (o policyOrder) Less(i, j int) bool { return o.less(i, j) }
func (o policyOrder) Swap(i, j int) {
	o.Executors[i], o.Executors[j] = o.Executors[j], o.Executors[i]
	o.Demands[i], o.Demands[j] = o.Demands[j], o.Demands[i]
	if o.Traffic != nil {
		o.Traffic[i], o.Traffic[j] = o.Traffic[j], o.Traffic[i]
	}
}

// kernel is the interned state of one Place call.
type kernel struct {
	slots     []cluster.SlotID // in.FreeSlots()
	slotOwner []int32          // slot → topology holding it, -1 while free
	nodes     []NodeState      // nodes with a free slot, in slot order
	numTopo   int
	topoOf    []int32 // rank → topology
	topoSlot  []int32 // [node·numTopo + topology] → its slot there, -1 if none

	// The symmetrised traffic matrix in CSR form over placement ranks: row
	// r holds the neighbours of executor r that are placed before it, in
	// ascending rank, with r(i,i') + r(i',i) as the weight.
	adjStart []int32
	adjTo    []int32
	adjRate  []float64
	nodeOf   []int32   // rank → node, for ranks already placed
	gain     []float64 // node → Algorithm 1's score for the current executor
}

func newKernel(in *Input, execs []topology.ExecutorID) *kernel {
	k := &kernel{
		slots:    in.FreeSlots(),
		topoOf:   make([]int32, len(execs)),
		nodeOf:   make([]int32, len(execs)),
		adjStart: make([]int32, len(execs)+1), // every row empty until loadFlows
	}
	k.slotOwner = make([]int32, len(k.slots))
	for i, s := range k.slots {
		k.slotOwner[i] = -1
		if i == 0 || s.Node != k.slots[i-1].Node {
			node, _ := in.Cluster.Node(s.Node)
			k.nodes = append(k.nodes, NodeState{
				CoreMHz:   node.CoreMHz,
				CPULimit:  in.Constraints.CPULimitMHz(node),
				MemLimit:  in.Constraints.MemLimitMB(node),
				NetLimit:  in.Constraints.NetLimitMBps(node),
				firstSlot: int32(i),
			})
		}
		k.nodes[len(k.nodes)-1].endSlot = int32(i + 1)
	}
	topos := make(map[string]int32)
	for r, e := range execs {
		t, ok := topos[e.Topology]
		if !ok {
			t = int32(len(topos))
			topos[e.Topology] = t
		}
		k.topoOf[r] = t
	}
	k.numTopo = len(topos)
	k.topoSlot = make([]int32, len(k.nodes)*k.numTopo)
	for i := range k.topoSlot {
		k.topoSlot[i] = -1
	}
	k.gain = make([]float64, len(k.nodes))
	return k
}

// loadFlows builds the CSR adjacency. Flows naming an executor outside
// execs can never be co-located and are skipped. Repeats and reverses of a
// pair are summed in flow order, which is the order the pairwise map of
// the reference implementation summed them in.
func (k *kernel) loadFlows(execs []topology.ExecutorID, flows []loaddb.Flow) {
	ne := len(execs)
	rank := make(map[topology.ExecutorID]int32, ne)
	for r, e := range execs {
		rank[e] = int32(r)
	}
	type edge struct {
		hi, lo int32
		rate   float64
	}
	edges := make([]edge, 0, len(flows))
	for _, f := range flows {
		u, ok := rank[f.From]
		if !ok {
			continue
		}
		v, ok := rank[f.To]
		if !ok || u == v {
			continue
		}
		if u < v {
			u, v = v, u
		}
		edges = append(edges, edge{u, v, f.Rate})
	}
	// Two stable counting sorts, by lo and then by hi, leave every row's
	// neighbours in ascending rank and the repeats of a pair adjacent, still
	// in flow order.
	start := make([]int32, ne+1)
	bucket := func(dst, src []edge, key func(edge) int32) {
		clear(start)
		for _, e := range src {
			start[key(e)+1]++
		}
		for i := 1; i <= ne; i++ {
			start[i] += start[i-1]
		}
		for _, e := range src {
			dst[start[key(e)]] = e
			start[key(e)]++
		}
	}
	sorted := make([]edge, len(edges))
	bucket(sorted, edges, func(e edge) int32 { return e.lo })
	bucket(edges, sorted, func(e edge) int32 { return e.hi })

	k.adjTo = make([]int32, 0, len(edges))
	k.adjRate = make([]float64, 0, len(edges))
	for i, e := range edges {
		if i > 0 && e.hi == edges[i-1].hi && e.lo == edges[i-1].lo {
			k.adjRate[len(k.adjRate)-1] += e.rate
			continue
		}
		k.adjTo = append(k.adjTo, e.lo)
		k.adjRate = append(k.adjRate, e.rate)
		k.adjStart[e.hi+1]++
	}
	for i := 1; i <= ne; i++ {
		k.adjStart[i] += k.adjStart[i-1]
	}
}

// violated names the first of the enforced limits the demand would break
// on the node, in the order CPU, memory, bandwidth, count; empty when it
// fits.
func (n *NodeState) violated(d Demand, enforce Limit, countCap float64) decision.Constraint {
	switch {
	case enforce&LimitCPU != 0 && n.CPU+d.CPUMHz > n.CPULimit:
		return decision.RejectedCapacity
	case enforce&LimitMem != 0 && n.Mem+d.MemMB > n.MemLimit:
		return decision.RejectedMemory
	case enforce&LimitNet != 0 && n.Net+d.NetMBps > n.NetLimit:
		return decision.RejectedNet
	case enforce&LimitCount != 0 && float64(n.Count+1) > countCap:
		return decision.RejectedCount
	}
	return ""
}

// scan picks the node for one executor under the enforced limits. It looks
// at nodes, not slots: the score and the limits are per node, and on each
// node the only slot the executor's topology can take is the one it
// already holds there or, failing that, the first free one. A non-nil opts
// (one entry per slot) additionally receives every slot's verdict.
// The node is -1 when nothing fits.
func (k *kernel) scan(p *Policy, topo int32, d Demand, enforce Limit, countCap float64, opts []decision.SlotOption) (node int, slot int32, score float64) {
	node = -1
	for n := range k.nodes {
		ns := &k.nodes[n]
		held := k.topoSlot[n*k.numTopo+int(topo)]
		s := held
		if s < 0 && ns.firstSlot+ns.owned < ns.endSlot {
			s = ns.firstSlot + ns.owned
		}
		if s < 0 && opts == nil {
			continue
		}
		verdict := ns.violated(d, enforce, countCap)
		if verdict != "" && opts == nil {
			continue
		}
		sc := k.gain[n]
		if p.Score != nil {
			sc = p.Score(ns, d)
		}
		if opts != nil {
			for i := ns.firstSlot; i < ns.endSlot; i++ {
				rejected := verdict
				if owner := k.slotOwner[i]; (owner >= 0 && owner != topo) || (p.OneSlotPerNode && held >= 0 && held != i) {
					rejected = decision.RejectedSlot
				}
				opts[i] = decision.SlotOption{Slot: k.slots[i], Gain: sc, Rejected: rejected}
			}
		}
		if s >= 0 && verdict == "" && (node < 0 || sc > score) {
			node, slot, score = n, s, sc
		}
	}
	return node, slot, score
}

// Place runs one scheduling round under the policy and returns the
// assignment and how many executors needed a limit relaxed. With in.Probe
// set it also records the decision report: every slot's score and verdict
// from each executor's strict pass, and which limits were dropped for it.
func Place(in *Input, p Policy) (*cluster.Assignment, int, error) {
	k := newKernel(in, p.Executors)
	if p.Score == nil && in.Load != nil {
		k.loadFlows(p.Executors, in.Load.Flows)
	}
	// The paper's N_e and K. K counts the nodes an executor can go to: one
	// the generator fenced off with OccupyNode is not in k.nodes, and
	// counting it would set a cap the usable nodes cannot hold.
	ne, nodes := len(p.Executors), len(k.nodes)
	probe := in.Probe
	if probe != nil {
		probe.Begin(p.Algorithm, ne, nodes)
	}
	countCap := 0.0
	if p.Enforce&LimitCount != 0 {
		countCap = max(p.Gamma*float64(ne)/float64(nodes), 1)
		if probe != nil {
			probe.Policy(p.Gamma, fraction(in.Constraints.CPUFraction), countCap)
		}
	}

	a := &cluster.Assignment{Executors: make(map[topology.ExecutorID]cluster.SlotID, ne)}
	relaxations := 0
	for r, e := range p.Executors {
		d, topo := p.Demands[r], k.topoOf[r]
		// Adding the placed neighbours' weights in rank order gives each
		// node's sum the order its executors were placed in.
		neighbours, rates := k.adjTo[k.adjStart[r]:k.adjStart[r+1]], k.adjRate[k.adjStart[r]:k.adjStart[r+1]]
		for i, other := range neighbours {
			k.gain[k.nodeOf[other]] += rates[i]
		}
		var opts []decision.SlotOption
		if probe != nil {
			opts = make([]decision.SlotOption, len(k.slots))
		}
		node, slot, score := k.scan(&p, topo, d, p.Enforce, countCap, opts)
		if node < 0 {
			relaxations++
		}
		var dropped Limit
		for i := 0; node < 0 && i < len(p.Relax); i++ {
			dropped |= p.Relax[i]
			node, slot, score = k.scan(&p, topo, d, p.Enforce&^dropped, countCap, nil)
		}
		if node < 0 {
			return nil, relaxations, fmt.Errorf("scheduler: %s found no slot for executor %v", p.Algorithm, e)
		}
		if probe != nil {
			opts[slot].Chosen = true
			pl := decision.Placement{
				Executor:        e,
				Rank:            r,
				Load:            d.CPUMHz,
				Slot:            k.slots[slot],
				Gain:            score,
				RelaxedCount:    dropped&LimitCount != 0,
				RelaxedCapacity: dropped&^LimitCount != 0,
				Options:         opts,
			}
			if p.Traffic != nil {
				pl.Traffic = p.Traffic[r]
			}
			probe.Place(pl)
		}

		a.Assign(e, k.slots[slot])
		ns := &k.nodes[node]
		ns.CPU += d.CPUMHz
		ns.Mem += d.MemMB
		ns.Net += d.NetMBps
		ns.Count++
		if k.slotOwner[slot] < 0 {
			k.slotOwner[slot] = topo
			k.topoSlot[node*k.numTopo+int(topo)] = slot
			ns.owned++
		}
		k.nodeOf[r] = int32(node)
		for _, other := range neighbours {
			k.gain[k.nodeOf[other]] = 0
		}
	}
	if probe != nil {
		probe.Finish(a, in.Load)
	}
	return a, relaxations, nil
}
