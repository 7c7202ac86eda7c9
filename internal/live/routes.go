package live

import (
	"tstorm/internal/cluster"
	"tstorm/internal/topology"
)

// compKey identifies one component of one topology in the routing
// snapshot's dense component index.
type compKey struct {
	topo string
	comp string
}

// routeTable is the immutable routing snapshot of the copy-on-write
// scheme that keeps eng.mu off the per-emission hot path. Submit and
// Apply rebuild a fresh table under the engine lock and publish it with
// one atomic store; emitters load it once per emission and resolve every
// target from it lock-free. Because a table is never mutated after
// publication, a single emission always observes one placement — either
// the pre-Apply or the post-Apply world, never a mix — and all costed
// work (value encoding, inter-node copy passes, the WireCost burn)
// happens with no lock held at all.
type routeTable struct {
	// byDense maps an executor's dense index to the executor itself; it
	// doubles as the monitor's iteration order when draining counters.
	byDense []*liveExec
	// denseRev maps a dense index back to the executor's identity.
	denseRev []topology.ExecutorID
	// slotOf maps a dense index to the executor's current worker slot —
	// the placement the router classifies every hop against.
	slotOf []cluster.SlotID
	// local marks executors that execute in this process; a false entry is
	// a routing proxy whose transfers leave through the engine's Remote
	// sink (all true in the classic in-process engine).
	local []bool
	// byComp maps (topology, component) to that component's executors
	// ordered by task index, so grouping target resolution is one map
	// lookup plus a slice index.
	byComp map[compKey][]*liveExec
	// groups lists the executors resident in each active slot — the
	// locality set LocalOrShuffleGrouping inspects.
	groups map[cluster.SlotID][]*liveExec
	// names maps every topology, component and stream name to itself: the
	// frame decoder resolves the names in a frame against it instead of
	// allocating a string per field.
	names map[string]string
}

// emptyRouteTable is what an engine routes with before anything is
// submitted.
func emptyRouteTable() *routeTable {
	return &routeTable{
		byComp: make(map[compKey][]*liveExec),
		groups: make(map[cluster.SlotID][]*liveExec),
	}
}

// rebuildRoutesLocked derives a fresh routing snapshot from the engine's
// authoritative state and publishes it. Caller holds eng.mu (write); the
// new table shares no mutable structure with the engine — maps and
// slices are deep-copied — so readers of the previous table are never
// disturbed and the engine may keep mutating its own bookkeeping freely.
func (eng *Engine) rebuildRoutesLocked() {
	rt := &routeTable{
		byDense:  make([]*liveExec, len(eng.denseRev)),
		denseRev: append([]topology.ExecutorID(nil), eng.denseRev...),
		slotOf:   make([]cluster.SlotID, len(eng.denseRev)),
		local:    make([]bool, len(eng.denseRev)),
		byComp:   make(map[compKey][]*liveExec),
		groups:   make(map[cluster.SlotID][]*liveExec, len(eng.groups)),
		names:    map[string]string{topology.DefaultStream: topology.DefaultStream},
	}
	for id, le := range eng.execs {
		rt.names[id.Topology] = id.Topology
		rt.names[id.Component] = id.Component
		for stream := range le.comp.Outputs {
			rt.names[stream] = stream
		}
		rt.byDense[le.dense] = le
		rt.slotOf[le.dense] = eng.placement[id]
		rt.local[le.dense] = eng.isLocalSlot(eng.placement[id])
		k := compKey{topo: id.Topology, comp: id.Component}
		tasks := rt.byComp[k]
		if tasks == nil {
			tasks = make([]*liveExec, le.comp.Parallelism)
			rt.byComp[k] = tasks
		}
		tasks[id.Index] = le
	}
	for s, g := range eng.groups {
		rt.groups[s] = append([]*liveExec(nil), g...)
	}
	eng.routes.Store(rt)
}

// executor resolves one task of one component, nil when unknown.
func (rt *routeTable) executor(topo, comp string, index int) *liveExec {
	tasks := rt.byComp[compKey{topo: topo, comp: comp}]
	if index < 0 || index >= len(tasks) {
		return nil
	}
	return tasks[index]
}
