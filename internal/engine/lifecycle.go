package engine

import (
	"fmt"

	"tstorm/internal/trace"
)

// KillTopology terminates a running topology: every one of its workers is
// shut down, its assignment is removed from the coordination store, and
// supervisors stop managing it. Its metrics remain readable for
// post-mortem analysis, as in Storm's UI after `storm kill`.
func (r *Runtime) KillTopology(topo string) error {
	ts := r.running(topo)
	if ts == nil {
		return fmt.Errorf("engine: unknown topology %q", topo)
	}
	for _, nid := range r.nodeOrder {
		ns := r.nodes[nid]
		for _, port := range ns.ports {
			ss := ns.slots[port]
			if ss.current != nil && ss.current.ts == ts {
				ss.current.kill()
				ss.current = nil
			}
			// Drop buffered traffic addressed here for the dead topology.
			kept := ss.pending[:0]
			for _, m := range ss.pending {
				if r.topoOf[m.to] != ts {
					kept = append(kept, m)
				}
			}
			ss.pending = kept
		}
	}
	r.emit(trace.TopologyKilled, topo, "", "")
	_ = r.coord.Delete(AssignmentPath(topo))
	ts.current, ts.killed = nil, true
	for i, name := range r.appOrder {
		if name == topo {
			r.appOrder = append(r.appOrder[:i], r.appOrder[i+1:]...)
			break
		}
	}
	return nil
}
