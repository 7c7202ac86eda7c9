package engine

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/topology"
	"tstorm/internal/trace"
)

// This file implements Storm's fault-tolerance behaviour (§II of the
// paper): supervisors restart crashed workers on the same node, and when
// a worker node stops heartbeating, Nimbus re-assigns its executors to
// live nodes.

// HeartbeatPath is the coordination-store znode a node's supervisor
// refreshes every sync period.
func HeartbeatPath(node cluster.NodeID) string {
	return "/supervisors/" + string(node)
}

// heartbeatTimeout is the supervisor's coordination-session timeout:
// when a node stops refreshing its session, its ephemeral heartbeat znode
// vanishes and Nimbus declares it dead (Storm's nimbus.supervisor.timeout).
const heartbeatTimeout = 30 * time.Second

// CrashWorker kills the worker process on the given slot (simulating a
// JVM crash). Its supervisor notices at the next sync and restarts it on
// the same slot — Storm's first level of fault tolerance. It reports
// whether a live worker was found.
func (r *Runtime) CrashWorker(slot cluster.SlotID) bool {
	ns := r.nodes[slot.Node]
	if ns == nil {
		return false
	}
	ss := ns.slots[slot.Port]
	if ss == nil || ss.current == nil || ss.current.state == workerDead {
		return false
	}
	w := ss.current
	w.kill()
	ss.current = nil
	w.ts.tm.WorkerCrashes++
	return true
}

// FailNode takes a worker node down: every worker on it dies, inbound
// messages are dropped, and its supervisor stops heartbeating. Nimbus
// declares it dead after heartbeatTimeout and re-assigns its executors.
func (r *Runtime) FailNode(id cluster.NodeID) bool {
	ns := r.nodes[id]
	if ns == nil || ns.down {
		return false
	}
	ns.down = true
	r.emit(trace.NodeFailed, "", string(id), "")
	for _, port := range ns.ports {
		ss := ns.slots[port]
		if ss.current != nil {
			ss.current.ts.tm.WorkerCrashes++
			ss.current.kill()
			ss.current = nil
		}
	}
	return true
}

// RecoverNode brings a failed node back. Its supervisor resumes
// heartbeating and the node becomes available to future schedules; the
// scheduler decides when (and whether) to move work back.
func (r *Runtime) RecoverNode(id cluster.NodeID) bool {
	ns := r.nodes[id]
	if ns == nil || !ns.down {
		return false
	}
	ns.down = false
	r.emit(trace.NodeRecovered, "", string(id), "")
	return true
}

// DownNodes lists currently failed nodes, sorted.
func (r *Runtime) DownNodes() []cluster.NodeID {
	var out []cluster.NodeID
	for _, id := range r.nodeOrder {
		if r.nodes[id].down {
			out = append(out, id)
		}
	}
	return out
}

// heartbeat refreshes the supervisor's coordination session and its
// ephemeral liveness znode. A recovered node opens a fresh session.
func (r *Runtime) heartbeat(ns *nodeState) {
	if ns.session == nil || !ns.session.Alive() {
		sess, err := r.coord.NewSession(heartbeatTimeout)
		if err != nil {
			return
		}
		ns.session = sess
	}
	stamp := strconv.FormatInt(int64(r.sim.Now()), 10)
	_ = ns.session.SetEphemeral(HeartbeatPath(ns.node.ID), []byte(stamp))
	ns.session.Refresh()
	ns.everHeartbeat = true
}

// nimbusCheckFailures is Nimbus's failure detector: a node whose
// ephemeral heartbeat znode has vanished (its session expired) is dead,
// and every topology with executors there gets a rescue re-assignment
// onto live nodes. It runs on the supervisor sync cadence.
func (r *Runtime) nimbusCheckFailures() {
	dead := make(map[cluster.NodeID]bool)
	for _, id := range r.nodeOrder {
		ns := r.nodes[id]
		if !ns.everHeartbeat {
			continue // never joined yet: give it time
		}
		if !r.coord.Exists(HeartbeatPath(id)) {
			dead[id] = true
		}
	}
	if len(dead) == 0 {
		return
	}
	for _, topo := range r.appOrder {
		ts := r.topos[topo]
		if ts.current == nil {
			continue
		}
		cur := ts.current.a
		orphaned := false
		for _, s := range cur.Executors {
			if dead[s.Node] {
				orphaned = true
				break
			}
		}
		if !orphaned {
			continue
		}
		if next, err := r.rescueAssignment(topo, cur, dead); err == nil {
			_ = r.PublishAssignment(topo, next)
			r.emit(trace.RescuePublished, topo, "", fmt.Sprintf("dead nodes: %d", len(dead)))
			ts.tm.RescueReassignments++
		}
	}
}

// rescueAssignment moves every executor placed on a dead node to a live
// slot: preferably a slot its topology already uses (least-loaded first),
// otherwise a free slot on a live node.
func (r *Runtime) rescueAssignment(topo string, cur *cluster.Assignment, dead map[cluster.NodeID]bool) (*cluster.Assignment, error) {
	next := cur.Clone()
	next.ID = 0

	// Executor counts of this topology's live slots.
	counts := make(map[cluster.SlotID]int)
	for _, s := range next.Executors {
		if !dead[s.Node] {
			counts[s]++
		}
	}
	// Slots occupied by other topologies anywhere.
	occupied := make(map[cluster.SlotID]bool)
	for other, ts := range r.topos {
		if other == topo || ts.current == nil {
			continue
		}
		for _, s := range ts.current.a.Executors {
			occupied[s] = true
		}
	}
	// Candidate pool: the topology's live slots, plus — preserving the
	// one-worker-per-node invariant — at most one free slot on each live
	// node that hosts none of this topology yet.
	var pool []cluster.SlotID
	nodeHasTopo := make(map[cluster.NodeID]bool)
	for s := range counts {
		pool = append(pool, s)
		nodeHasTopo[s.Node] = true
	}
	for _, id := range r.nodeOrder {
		if dead[id] || r.nodes[id].down || nodeHasTopo[id] {
			continue
		}
		for _, port := range r.nodes[id].ports {
			s := cluster.SlotID{Node: id, Port: port}
			if !occupied[s] {
				pool = append(pool, s)
				break
			}
		}
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("engine: no live slots to rescue topology %q onto", topo)
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].Less(pool[j]) })

	// Orphaned executors, in deterministic order.
	var orphans []topology.ExecutorID
	for e, s := range next.Executors {
		if dead[s.Node] {
			orphans = append(orphans, e)
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].Less(orphans[j]) })
	for _, e := range orphans {
		best := pool[0]
		for _, s := range pool[1:] {
			if counts[s] < counts[best] {
				best = s
			}
		}
		next.Assign(e, best)
		counts[best]++
	}
	return next, nil
}
