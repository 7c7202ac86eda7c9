package scheduler

import (
	"fmt"
	"sort"

	"tstorm/internal/cluster"
	"tstorm/internal/loaddb"
	"tstorm/internal/topology"
)

// AnielloOffline is the offline scheduler of Aniello, Baldoni and Querzoni
// (DEBS'13), re-implemented from their description: it inspects only the
// topology graph — no runtime information — walks the components in
// topological (BFS) order, and packs executors of adjacent components into
// the same workers, placing workers round-robin across nodes. The paper
// under reproduction criticizes it for exactly this load-obliviousness.
type AnielloOffline struct{}

var _ Algorithm = AnielloOffline{}

// Name returns "aniello-offline".
func (AnielloOffline) Name() string { return "aniello-offline" }

// Schedule partitions each topology's executors into N_u contiguous
// chunks along the BFS component order.
func (AnielloOffline) Schedule(in *Input) (*cluster.Assignment, error) {
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

		execs := bfsOrderedExecutors(top)
		// Contiguous chunks keep adjacent components' executors together.
		per := (len(execs) + nw - 1) / nw
		for i, e := range execs {
			a.Assign(e, workers[i/per])
		}
	}
	recordDecisions(in, "aniello-offline", a)
	return a, nil
}

// bfsOrderedExecutors lists executors component-by-component in BFS order
// from the spouts, so stream-adjacent components are adjacent in the list.
func bfsOrderedExecutors(top *topology.Topology) []topology.ExecutorID {
	adj := top.AdjacentComponents()
	visited := make(map[string]bool)
	var order []string
	var queue []string
	for _, name := range top.ComponentNames() {
		c, _ := top.Component(name)
		if c.Kind == topology.SpoutKind {
			queue = append(queue, name)
			visited[name] = true
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		order = append(order, cur)
		neighbors := append([]string(nil), adj[cur]...)
		sort.Strings(neighbors)
		for _, n := range neighbors {
			if !visited[n] {
				visited[n] = true
				queue = append(queue, n)
			}
		}
	}
	// Anything unreachable (e.g. the acker component) goes last.
	for _, name := range top.ComponentNames() {
		if !visited[name] {
			order = append(order, name)
		}
	}
	var out []topology.ExecutorID
	for _, name := range order {
		c, _ := top.Component(name)
		for i := 0; i < c.Parallelism; i++ {
			out = append(out, topology.ExecutorID{Topology: top.Name(), Component: name, Index: i})
		}
	}
	return out
}

// AnielloOnline is the online scheduler of Aniello et al. (DEBS'13),
// re-implemented from their two-phase description:
//
//  1. executors → workers: executor pairs in descending traffic order are
//     greedily merged into the same worker, subject to a per-worker
//     executor cap ceil(N_e/N_w);
//  2. workers → nodes: worker pairs in descending inter-worker traffic
//     order are co-located on the same node, subject to a per-node worker
//     cap ceil(N_w/K).
//
// Unlike the original implementation — which falls back to Storm's default
// scheduler on topologies below a complexity threshold (a limitation §III
// of the reproduced paper calls out) — this version runs on any topology.
type AnielloOnline struct{}

var _ Algorithm = AnielloOnline{}

// Name returns "aniello-online".
func (AnielloOnline) Name() string { return "aniello-online" }

// Schedule runs the two phases per topology.
func (AnielloOnline) Schedule(in *Input) (*cluster.Assignment, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.Load == nil {
		in = &Input{Topologies: in.Topologies, Cluster: in.Cluster,
			Load: &loaddb.Snapshot{}, Occupied: in.Occupied,
			Constraints: in.Constraints, Probe: in.Probe}
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
		slots := free[:nw]
		free = free[nw:]
		groups := phase1Workers(top, in.Load, nw)
		order := phase2Order(top, in.Load, groups, in.Cluster.NumNodes())
		for wi, slotIdx := range order {
			for _, e := range groups[wi] {
				a.Assign(e, slots[slotIdx])
			}
		}
	}
	recordDecisions(in, "aniello-online", a)
	return a, nil
}

// phase1Workers groups executors into nw workers, merging high-traffic
// pairs first under the executor cap.
func phase1Workers(top *topology.Topology, load *loaddb.Snapshot, nw int) [][]topology.ExecutorID {
	execs := top.Executors()
	capSize := (len(execs) + nw - 1) / nw

	group := make(map[topology.ExecutorID]int, len(execs))
	for _, e := range execs {
		group[e] = -1
	}
	sizes := make([]int, 0, nw)
	var groups [][]topology.ExecutorID

	newGroup := func(e topology.ExecutorID) int {
		groups = append(groups, []topology.ExecutorID{e})
		sizes = append(sizes, 1)
		group[e] = len(groups) - 1
		return group[e]
	}

	// Merge pairs in descending traffic order.
	flows := append([]loaddb.Flow(nil), load.Flows...)
	sort.SliceStable(flows, func(i, j int) bool { return flows[i].Rate > flows[j].Rate })
	for _, f := range flows {
		if f.From.Topology != top.Name() || f.To.Topology != top.Name() {
			continue
		}
		gi, okFrom := group[f.From]
		gj, okTo := group[f.To]
		if !okFrom || !okTo {
			continue
		}
		switch {
		case gi == -1 && gj == -1:
			if len(groups) < nw {
				g := newGroup(f.From)
				groups[g] = append(groups[g], f.To)
				sizes[g]++
				group[f.To] = g
			}
		case gi == -1 && gj >= 0:
			if sizes[gj] < capSize {
				groups[gj] = append(groups[gj], f.From)
				sizes[gj]++
				group[f.From] = gj
			}
		case gi >= 0 && gj == -1:
			if sizes[gi] < capSize {
				groups[gi] = append(groups[gi], f.To)
				sizes[gi]++
				group[f.To] = gi
			}
		}
	}
	// Everything unplaced goes to the least-filled group (creating groups
	// until nw exist).
	for _, e := range execs {
		if group[e] >= 0 {
			continue
		}
		if len(groups) < nw {
			newGroup(e)
			continue
		}
		best := 0
		for g := 1; g < len(groups); g++ {
			if sizes[g] < sizes[best] {
				best = g
			}
		}
		groups[best] = append(groups[best], e)
		sizes[best]++
		group[e] = best
	}
	return groups
}

// phase2Order maps each worker group to a slot index such that
// high-traffic worker pairs land on the same node where possible. The
// returned slice is indexed by group and holds the slot index.
func phase2Order(top *topology.Topology, load *loaddb.Snapshot, groups [][]topology.ExecutorID, numNodes int) []int {
	nw := len(groups)
	groupOf := make(map[topology.ExecutorID]int)
	for gi, g := range groups {
		for _, e := range g {
			groupOf[e] = gi
		}
	}
	// Inter-group traffic.
	type gpair struct{ a, b int }
	inter := make(map[gpair]float64)
	for _, f := range load.Flows {
		ga, okA := groupOf[f.From]
		gb, okB := groupOf[f.To]
		if !okA || !okB || ga == gb {
			continue
		}
		if ga > gb {
			ga, gb = gb, ga
		}
		inter[gpair{ga, gb}] += f.Rate
	}
	pairs := make([]gpair, 0, len(inter))
	for p := range inter {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if inter[pairs[i]] != inter[pairs[j]] {
			return inter[pairs[i]] > inter[pairs[j]]
		}
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	// Buddy assignment: slots are handed out in order; the slot list is
	// interleaved (node-major per round), so "same node" means slot
	// indexes congruent modulo numNodes... instead we group slot indexes
	// by pseudo-node bucket i%numNodes of the interleaved ordering.
	perNode := (nw + numNodes - 1) / numNodes
	nodeOf := make([]int, nw)   // group → pseudo-node
	nodeFill := make([]int, nw) // pseudo-node → groups placed
	for i := range nodeOf {
		nodeOf[i] = -1
	}
	nextNode := 0
	place := func(g int) int {
		for nodeFill[nextNode] >= perNode {
			nextNode++
		}
		nodeOf[g] = nextNode
		nodeFill[nextNode]++
		return nextNode
	}
	for _, p := range pairs {
		switch {
		case nodeOf[p.a] == -1 && nodeOf[p.b] == -1:
			n := place(p.a)
			if nodeFill[n] < perNode {
				nodeOf[p.b] = n
				nodeFill[n]++
			}
		case nodeOf[p.a] == -1:
			if nodeFill[nodeOf[p.b]] < perNode {
				nodeOf[p.a] = nodeOf[p.b]
				nodeFill[nodeOf[p.b]]++
			}
		case nodeOf[p.b] == -1:
			if nodeFill[nodeOf[p.a]] < perNode {
				nodeOf[p.b] = nodeOf[p.a]
				nodeFill[nodeOf[p.a]]++
			}
		}
	}
	for g := 0; g < nw; g++ {
		if nodeOf[g] == -1 {
			place(g)
		}
	}
	// Convert pseudo-node buckets to slot indexes: slots were handed out
	// interleaved across nodes, so slot index = node + round*numNodes.
	// Groups on the same pseudo-node take consecutive rounds of the same
	// column when possible.
	used := make(map[int]bool)
	out := make([]int, nw)
	for g := 0; g < nw; g++ {
		col := nodeOf[g] % numNodes
		idx := col
		for used[idx] || idx >= nw {
			idx = (idx + numNodes)
			if idx >= nw {
				// Column exhausted: linear scan for any free slot.
				idx = 0
				for used[idx] {
					idx++
				}
			}
		}
		used[idx] = true
		out[g] = idx
	}
	return out
}
