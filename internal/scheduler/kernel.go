package scheduler

// The dense placement kernel under Algorithm 1 (internal/core), rstorm and
// hetero. All three are the same greedy: walk the executors in some order
// and give each to the best-scoring node whose limits it fits, dropping
// limits one by one when no node fits. A Policy says what differs — the
// order, the score, the limits and the order they are dropped in — and
// Place runs the one loop over state interned to integer indices. A scored
// policy visits every node per executor, O(F + Ne·K); Algorithm 1 visits
// only the nodes of the executor's placed neighbours and the first node
// that fits, O(F + Σ degree) plus a cursor walk. DESIGN.md §10
// ("Placement kernel") gives the index layout and the rules that keep the
// output identical to the map-based implementations this replaced.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

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
	// nil leaves it zero; InternFlows sets it).
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
	// score, the traffic in Flows between the executor and those already
	// placed on the node.
	Score func(n *NodeState, d Demand) float64
	// Flows is the load snapshot's traffic over indices of Executors, in
	// the snapshot's order (InternFlows fills it). Only a nil Score reads
	// it.
	Flows []Flow
}

// Flow is one flow of the load snapshot with its endpoints interned to
// indices of Policy.Executors; -1 marks an executor outside the round.
type Flow struct {
	From, To int32
	Rate     float64
}

// InternFlows sets p.Flows from the snapshot's flows and p.Traffic to
// each executor's total rate, incoming plus outgoing, summed in flow order.
// It hashes nothing: each endpoint is found among the placement order's
// groups (groupsOf), a handful of (topology, component) runs, and
// resolved by its Index within the run.
func (p *Policy) InternFlows(flows []loaddb.Flow) {
	groups := groupsOf(p.Executors)
	p.Flows = make([]Flow, len(flows))
	p.Traffic = make([]float64, len(p.Executors))
	for i, f := range flows {
		from, to := position(groups, f.From), position(groups, f.To)
		p.Flows[i] = Flow{From: from, To: to, Rate: f.Rate}
		if from >= 0 {
			p.Traffic[from] += f.Rate
		}
		if to >= 0 {
			p.Traffic[to] += f.Rate
		}
	}
}

// group is a run of the placement order that shares a topology and a
// component and holds consecutive indexes: positions at..at+n-1 are
// indexes first..first+n-1. Listed topology by topology in
// Topology.Executors() order, as Algorithm 1 and hetero list them, the
// executors form one group per component, and an executor's position is
// its topology's offset plus its Topology.Number.
type group struct {
	topology, component string
	at, first, n        int
}

// groupsOf splits the placement order into its groups.
func groupsOf(execs []topology.ExecutorID) []group {
	groups := make([]group, 0, 8) // a round rarely has more
	for i, e := range execs {
		if len(groups) > 0 {
			g := &groups[len(groups)-1]
			if e.Index == g.first+g.n && e.Component == g.component && e.Topology == g.topology {
				g.n++
				continue
			}
		}
		groups = append(groups, group{topology: e.Topology, component: e.Component, at: i, first: e.Index, n: 1})
	}
	return groups
}

// position returns e's place in the placement order the groups were
// taken from, -1 when no group holds it.
func position(groups []group, e topology.ExecutorID) int32 {
	for i := range groups {
		g := &groups[i]
		if d := e.Index - g.first; uint(d) < uint(g.n) && e.Component == g.component && e.Topology == g.topology {
			return int32(g.at + d)
		}
	}
	return -1
}

// idRanks returns each executor's rank in executor-ID order (topology,
// component, index), computed without comparing IDs: the groups are
// sorted once, and within a group the rank follows Index.
func idRanks(execs []topology.ExecutorID) []int32 {
	groups := groupsOf(execs)
	slices.SortFunc(groups, func(a, b group) int {
		if c := strings.Compare(a.topology, b.topology); c != 0 {
			return c
		}
		if c := strings.Compare(a.component, b.component); c != 0 {
			return c
		}
		return cmp.Compare(a.first, b.first)
	})
	rank := make([]int32, len(execs))
	next := int32(0)
	for _, g := range groups {
		for d := range g.n {
			rank[g.at+d] = next + int32(d)
		}
		next += int32(g.n)
	}
	return rank
}

// SortDescending reorders the placement order — the executors, with their
// demands and traffic — by descending key (one entry per executor), then
// by executor ID, and renumbers Flows to match. It reorders the policy's
// slices in place, so key may be one of them. A NaN key sorts after every
// number, NaNs by executor ID, and -0 ties with +0. No two executors
// share an ID, so the order is total. The sort compares no IDs and calls
// no comparator: the entries start in ID order (idRanks), and a stable
// radix sort on the key's bits (descending) keeps equal keys in it.
func (p *Policy) SortDescending(key []float64) {
	type entry struct {
		key uint64
		pos int32
	}
	rank := idRanks(p.Executors)
	buf := make([]entry, 2*len(rank))
	src, dst := buf[:len(rank)], buf[len(rank):]
	for i, r := range rank {
		src[r] = entry{descending(key[i]), int32(i)}
	}
	var start [256]int32
	for shift := 0; shift < 64 && len(src) > 0; shift += 8 {
		clear(start[:])
		for _, e := range src {
			start[uint8(e.key>>shift)]++
		}
		if int(start[uint8(src[0].key>>shift)]) == len(src) {
			continue // every key has this digit: the pass would only copy
		}
		sum := int32(0)
		for d, c := range start {
			start[d] = sum
			sum += c
		}
		for _, e := range src {
			d := uint8(e.key >> shift)
			dst[start[d]] = e
			start[d]++
		}
		src, dst = dst, src
	}
	// moved[i] is where the executor at position i goes. The lists are
	// reordered in place, one swap per executor that moves.
	moved := rank
	for r, e := range src {
		moved[e.pos] = int32(r)
	}
	for i, f := range p.Flows {
		if f.From >= 0 {
			p.Flows[i].From = moved[f.From]
		}
		if f.To >= 0 {
			p.Flows[i].To = moved[f.To]
		}
	}
	for i := range moved {
		for j := moved[i]; j != int32(i); j = moved[i] {
			p.Executors[i], p.Executors[j] = p.Executors[j], p.Executors[i]
			p.Demands[i], p.Demands[j] = p.Demands[j], p.Demands[i]
			if p.Traffic != nil {
				p.Traffic[i], p.Traffic[j] = p.Traffic[j], p.Traffic[i]
			}
			moved[i], moved[j] = moved[j], j
		}
	}
}

// descending maps a sort key to an integer that ascends as the key
// descends: the IEEE 754 bits of a negative key as they are, those of a
// positive one with the sign set and then inverted. -0 maps as +0, and
// every NaN to the largest integer, after every number.
func descending(k float64) uint64 {
	switch {
	case k != k:
		return math.MaxUint64
	case k == 0:
		k = 0
	}
	b := math.Float64bits(k)
	if b>>63 != 0 {
		return b
	}
	return ^(b | 1<<63)
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
	// negative is set when some weight is negative or NaN. The first node
	// that fits may then score below zero, or compare false with zero, and
	// lose to a later node holding no neighbour, which pick never visits:
	// every strict pass of the round scans all nodes instead.
	negative bool
	nodeOf   []int32   // rank → node, for ranks already placed
	gain     []float64 // node → Algorithm 1's score for the current executor
	// cursor is the first node that is not count-full. Counts only grow
	// within a round, so the strict pass never fits a node before it.
	cursor int
}

func newKernel(in *Input, execs []topology.ExecutorID) *kernel {
	k := &kernel{
		slots:    in.FreeSlots(),
		topoOf:   make([]int32, len(execs)),
		nodeOf:   make([]int32, len(execs)),
		adjStart: make([]int32, len(execs)+1), // every row empty until loadFlows
		nodes:    make([]NodeState, 0, in.Cluster.NumNodes()),
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

// loadFlows builds the CSR adjacency from flows over placement ranks.
// Flows naming an executor outside the round can never be co-located and
// are skipped. Repeats and reverses of a pair are summed in flow order,
// which is the order the pairwise map of the reference implementation
// summed them in.
func (k *kernel) loadFlows(flows []Flow) {
	ne := len(k.nodeOf)
	type edge struct {
		hi, lo int32
		rate   float64
	}
	ends := func(f Flow) (hi, lo int32, ok bool) {
		hi, lo = max(f.From, f.To), min(f.From, f.To)
		return hi, lo, lo >= 0 && hi != lo
	}
	// Two stable counting sorts, by lo into edges and then by hi into the
	// rows, leave every row's neighbours in ascending rank and the repeats
	// of a pair adjacent, still in flow order.
	start := make([]int32, ne+1)
	prefix := func() {
		for i := 1; i <= ne; i++ {
			start[i] += start[i-1]
		}
	}
	for _, f := range flows {
		if _, lo, ok := ends(f); ok {
			start[lo+1]++
		}
	}
	prefix()
	edges := make([]edge, start[ne])
	for _, f := range flows {
		if hi, lo, ok := ends(f); ok {
			edges[start[lo]] = edge{hi, lo, f.Rate}
			start[lo]++
		}
	}
	clear(start)
	for _, e := range edges {
		start[e.hi+1]++
	}
	prefix()
	k.adjTo = make([]int32, len(edges))
	k.adjRate = make([]float64, len(edges))
	for _, e := range edges {
		k.adjTo[start[e.hi]] = e.lo
		k.adjRate[start[e.hi]] = e.rate
		start[e.hi]++
	}
	// start[r] now ends row r. Sum the repeats of a pair into its first
	// entry, compacting the rows in place.
	n, from := int32(0), int32(0)
	for r := 0; r < ne; r++ {
		k.adjStart[r] = n
		for i := from; i < start[r]; i++ {
			if n > k.adjStart[r] && k.adjTo[i] == k.adjTo[n-1] {
				k.adjRate[n-1] += k.adjRate[i]
				continue
			}
			k.adjTo[n], k.adjRate[n] = k.adjTo[i], k.adjRate[i]
			n++
		}
		from = start[r]
	}
	k.adjStart[ne] = n
	k.adjTo, k.adjRate = k.adjTo[:n], k.adjRate[:n]
	for _, r := range k.adjRate {
		if !(r >= 0) {
			k.negative = true
			break
		}
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

// slotFor returns the slot the topology holds on node n (-1 if none) and
// the one it would take there: the held one or, failing that, the node's
// first free one; -1 when it has neither.
func (k *kernel) slotFor(n int, topo int32) (held, slot int32) {
	ns := &k.nodes[n]
	held = k.topoSlot[n*k.numTopo+int(topo)]
	slot = held
	if slot < 0 && ns.firstSlot+ns.owned < ns.endSlot {
		slot = ns.firstSlot + ns.owned
	}
	return held, slot
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
		held, s := k.slotFor(n, topo)
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

// pick is scan for Algorithm 1's strict pass when no weight is negative
// and no probe wants every slot's verdict. Every node without a placed
// neighbour scores zero, so only two kinds of node can win: the first node
// that fits, which no other zero-score node beats, and the nodes of the
// neighbours. Of these the highest score wins, and of equals the lowest
// index, as in scan.
func (k *kernel) pick(topo int32, d Demand, enforce Limit, countCap float64, neighbours []int32) (node int, slot int32, score float64) {
	for enforce&LimitCount != 0 && k.cursor < len(k.nodes) && float64(k.nodes[k.cursor].Count+1) > countCap {
		k.cursor++
	}
	node = -1
	for n := k.cursor; n < len(k.nodes); n++ {
		if s := k.fit(n, topo, d, enforce, countCap); s >= 0 {
			node, slot, score = n, s, k.gain[n]
			break
		}
	}
	if node < 0 {
		return node, 0, 0 // no neighbour's node fits either
	}
	for _, other := range neighbours {
		n := int(k.nodeOf[other])
		if g := k.gain[n]; g > score || (g == score && n < node) {
			if s := k.fit(n, topo, d, enforce, countCap); s >= 0 {
				node, slot, score = n, s, g
			}
		}
	}
	return node, slot, score
}

// fit returns the slot the executor would take on node n under the
// enforced limits, -1 when the node has none for its topology or the
// demand breaks a limit there.
func (k *kernel) fit(n int, topo int32, d Demand, enforce Limit, countCap float64) int32 {
	if _, s := k.slotFor(n, topo); s >= 0 && k.nodes[n].violated(d, enforce, countCap) == "" {
		return s
	}
	return -1
}

// Place runs one scheduling round under the policy. With in.Probe set it
// also records the decision report: every slot's score and verdict from
// each executor's strict pass, and which limits were dropped for it.
func Place(in *Input, p Policy) (*cluster.Assignment, error) {
	k := newKernel(in, p.Executors)
	if p.Score == nil {
		k.loadFlows(p.Flows)
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
	// A score, a probe or a negative weight needs every node's verdict.
	candidatesOnly := p.Score == nil && probe == nil && !k.negative

	a := &cluster.Assignment{Executors: make(map[topology.ExecutorID]cluster.SlotID, ne)}
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
		var node int
		var slot int32
		var score float64
		if candidatesOnly {
			node, slot, score = k.pick(topo, d, p.Enforce, countCap, neighbours)
		} else {
			node, slot, score = k.scan(&p, topo, d, p.Enforce, countCap, opts)
		}
		var dropped Limit
		for i := 0; node < 0 && i < len(p.Relax); i++ {
			dropped |= p.Relax[i]
			node, slot, score = k.scan(&p, topo, d, p.Enforce&^dropped, countCap, nil)
		}
		if node < 0 {
			return nil, fmt.Errorf("scheduler: %s found no slot for executor %v", p.Algorithm, e)
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
	return a, nil
}
