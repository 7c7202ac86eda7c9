package live

import (
	"fmt"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/engine"
	"tstorm/internal/trace"
	"tstorm/internal/tuple"
)

// Apply migrates the named topology to the given assignment with the
// paper's smoothing (§IV-D), adapted to in-process workers:
//
//  1. spouts are halted, so no new roots enter the topology;
//  2. the engine quiesces — in-flight tuples drain through their bolts
//     (bounded by DrainTimeout; on timeout the move proceeds and each
//     executor's bounded input queue travels with it, so nothing is lost
//     either way);
//  3. executors whose slot changed are handed off between worker groups
//     and a freshly built routing snapshot is published with one atomic
//     store (emitters keep routing lock-free against the old snapshot
//     until the instant of the swap — see routes.go);
//  4. spouts resume after SpoutHaltDelay.
//
// Unlike Storm's abrupt re-assignment there is no worker restart and no
// executor state loss: migration changes which emulated node pays the
// executor's boundary costs. Apply returns the number of executors moved.
func (eng *Engine) Apply(name string, next *cluster.Assignment) (int, error) {
	eng.applyMu.Lock()
	defer eng.applyMu.Unlock()

	app, changed, err := eng.validateAssignment(name, next)
	if err != nil || !changed {
		return 0, err
	}

	applyStart := time.Now()
	eng.emit(trace.AssignmentPublished, name, "",
		"applying new assignment: halt spouts, drain, migrate")
	eng.HaltSpouts()
	defer eng.resumeSpoutsAfter(eng.cfg.SpoutHaltDelay)
	drainStart := time.Now()
	if eng.Quiesce(eng.cfg.DrainTimeout) {
		eng.emit(trace.QueuesDrained, name, "",
			fmt.Sprintf("in-flight tuples drained in %v", time.Since(drainStart).Round(time.Microsecond)))
	} else {
		eng.emit(trace.QueuesDrained, name, "",
			fmt.Sprintf("drain timeout after %v; queues travel with their executors", eng.cfg.DrainTimeout))
	}

	moved := eng.applyMoves(app, name, next)
	eng.emit(trace.ReassignApplied, name, "",
		fmt.Sprintf("moved %d executors in %v; spouts resume in %v",
			moved, time.Since(applyStart).Round(time.Microsecond), eng.cfg.SpoutHaltDelay))
	return moved, nil
}

// ApplyAssignment installs a new assignment without the halt/drain
// smoothing — the worker-process entry point of a distributed migration,
// where the driver has already halted spouts and quiesced the whole fleet
// before publishing the assignment. Executors arriving at this process
// are promoted from routing proxies to running incarnations (fresh user
// code); executors leaving are stopped and a pump forwards anything still
// (or subsequently) stranded in their local queues to the new owner.
func (eng *Engine) ApplyAssignment(name string, next *cluster.Assignment) (int, error) {
	eng.applyMu.Lock()
	defer eng.applyMu.Unlock()
	app, changed, err := eng.validateAssignment(name, next)
	if err != nil || !changed {
		return 0, err
	}
	moved := eng.applyMoves(app, name, next)
	eng.emit(trace.ReassignApplied, name, "",
		fmt.Sprintf("installed published assignment: %d executors moved", moved))
	return moved, nil
}

// validateAssignment checks an assignment covers the topology with known
// nodes; it reports whether the assignment differs from the live one.
func (eng *Engine) validateAssignment(name string, next *cluster.Assignment) (*engine.App, bool, error) {
	eng.mu.RLock()
	app, ok := eng.apps[name]
	cur := eng.assign[name]
	eng.mu.RUnlock()
	if !ok {
		return nil, false, fmt.Errorf("live: unknown topology %q", name)
	}
	for _, e := range app.Topology.Executors() {
		s, ok := next.Slot(e)
		if !ok {
			return nil, false, fmt.Errorf("live: executor %v missing from new assignment", e)
		}
		if _, ok := eng.cl.Node(s.Node); !ok {
			return nil, false, fmt.Errorf("live: executor %v assigned to unknown node %q", e, s.Node)
		}
	}
	return app, !cur.Equal(next), nil
}

// applyMoves re-homes every executor whose slot changed, publishes the new
// routing snapshot, and runs the local↔remote transitions. It returns the
// number of executors moved (counting fleet-wide moves, not just the ones
// touching this process, so counters agree across distributed workers).
func (eng *Engine) applyMoves(app *engine.App, name string, next *cluster.Assignment) int {
	// Trace emission happens after eng.mu is released, so the recorder's
	// lock is never taken while the engine lock is held.
	type move struct {
		exec     string
		from, to cluster.SlotID
		queued   int
	}
	var (
		moves    []move
		departed []*liveExec // local here, now placed on a non-local slot
		arrived  []*liveExec // proxy here, now placed on a local slot
	)
	eng.mu.Lock()
	for _, e := range app.Topology.Executors() {
		s := next.Executors[e]
		old := eng.placement[e]
		if old == s {
			continue
		}
		le := eng.execs[e]
		eng.groups[old] = removeFromGroup(eng.groups[old], le)
		if len(eng.groups[old]) == 0 {
			delete(eng.groups, old)
		}
		eng.groups[s] = append(eng.groups[s], le)
		eng.placement[e] = s
		wasLocal, isLocal := eng.isLocalSlot(old), eng.isLocalSlot(s)
		switch {
		case wasLocal && !isLocal:
			departed = append(departed, le)
		case !wasLocal && isLocal:
			arrived = append(arrived, le)
		}
		moves = append(moves, move{exec: e.String(), from: old, to: s, queued: int(le.queued.Load())})
	}
	eng.assign[name] = next.Clone()
	eng.rebuildRoutesLocked()
	eng.mu.Unlock()

	// Transitions run against the already-published routes: senders on the
	// new snapshot route departures remotely (and arrivals locally) from
	// this instant; stragglers on the old snapshot land in the departed
	// executor's queue, which the pump forwards.
	for _, le := range departed {
		eng.demoteToRemote(le)
	}
	for _, le := range arrived {
		eng.promoteToLocal(le)
	}

	for _, mv := range moves {
		eng.emit(trace.ExecutorMigrated, name, mv.to.String(),
			fmt.Sprintf("%s moved from %s (queue handed off, %d tuples)",
				mv.exec, mv.from, mv.queued))
	}
	eng.migrations.Add(int64(len(moves)))
	eng.applies.Add(1)
	return len(moves)
}

// demoteToRemote retires a local executor whose slot moved to another
// process: stop the incarnation (or its dead-state drainer), surrender
// spout reliability gauges (those roots replay from the new owner's
// incarnation), and start the stranded-queue pump for as long as the
// executor stays remote.
func (eng *Engine) demoteToRemote(le *liveExec) {
	for {
		eng.mu.Lock()
		switch le.state {
		case stateAlive:
			le.state = stateDying
			le.dead.Store(true)
			close(le.die)
			eng.mu.Unlock()
			<-le.gone
			eng.mu.Lock()
			if le.kind == spoutExec && le.anchored {
				lost := int64(0)
				for _, p := range le.pendingRoots {
					if !p.failed {
						lost++
					}
				}
				eng.pendingRoots.Add(-lost)
			}
		case stateDead:
			drainStop, drainDone := le.drainStop, le.drainDone
			le.drainStop, le.drainDone = nil, nil
			eng.mu.Unlock()
			if drainStop != nil {
				close(drainStop)
				<-drainDone
			}
			eng.mu.Lock()
		case stateRemote:
			eng.mu.Unlock()
			return
		default:
			// stateDying: a concurrent CrashWorker/FailNode is mid-kill; let
			// it settle into stateDead, then take the drainer over.
			eng.mu.Unlock()
			time.Sleep(100 * time.Microsecond)
			continue
		}
		break
	}
	if le.in != nil || le.ctl != nil {
		le.pumpStop = make(chan struct{})
		le.pumpDone = make(chan struct{})
		eng.wg.Add(1)
		go le.pumpRemote(le.pumpStop, le.pumpDone)
	}
	le.state = stateRemote
	le.dead.Store(false)
	le.crashedAt = time.Time{}
	eng.mu.Unlock()
	// Stale completion events belong to roots that died with this
	// incarnation; the new owner's incarnation knows nothing of them.
	le.ackMu.Lock()
	le.ackEvents = nil
	le.ackMu.Unlock()
}

// promoteToLocal turns a routing proxy into a running incarnation: stop
// the pump (if any), build fresh user code (executor state did not travel
// — exactly Storm's worker-reassignment semantics), and launch the
// goroutine. Before Engine.Start the promotion is bookkeeping only; Start
// opens and launches everything non-remote itself.
func (eng *Engine) promoteToLocal(le *liveExec) {
	eng.mu.Lock()
	if le.state != stateRemote {
		eng.mu.Unlock()
		return
	}
	pumpStop, pumpDone := le.pumpStop, le.pumpDone
	le.pumpStop, le.pumpDone = nil, nil
	if !eng.started.Load() {
		le.state = stateAlive
		eng.mu.Unlock()
		return
	}
	eng.mu.Unlock()
	if pumpStop != nil {
		close(pumpStop)
		<-pumpDone
	}

	var (
		spout engine.Spout
		bolt  engine.Bolt
	)
	switch le.kind {
	case spoutExec:
		spout = le.app.Spouts[le.id.Component]()
		spout.Open(le.ctx)
	case boltExec:
		bolt = le.app.Bolts[le.id.Component]()
		bolt.Prepare(le.ctx)
	}

	eng.mu.Lock()
	if spout != nil {
		le.spout = spout
	}
	if bolt != nil {
		le.bolt = bolt
	}
	if le.kind == spoutExec && le.anchored {
		le.pendingRoots = make(map[tuple.ID]*livePendingRoot)
		le.firstEmit = make(map[any]time.Time)
		le.outstanding = 0
		le.ackMu.Lock()
		le.ackEvents = nil
		le.ackMu.Unlock()
	}
	le.die = make(chan struct{})
	le.gone = make(chan struct{})
	le.state = stateAlive
	le.dead.Store(false)
	le.crashedAt = time.Time{}
	if !eng.stopped.Load() {
		eng.wg.Add(1)
		go le.run(le.die, le.gone)
	}
	eng.mu.Unlock()
	eng.emit(trace.ExecutorMigrated, le.id.Topology, "",
		fmt.Sprintf("%s promoted to local incarnation", le.id))
}

func removeFromGroup(g []*liveExec, le *liveExec) []*liveExec {
	for i, p := range g {
		if p == le {
			return append(g[:i], g[i+1:]...)
		}
	}
	return g
}
