package live

import (
	"fmt"
	"sort"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/trace"
)

// This file is the live runtime's fault-injection surface, mirroring the
// simulated engine's (internal/engine/failure.go) with real goroutines:
// CrashWorker kills a worker process's executor goroutines, FailNode takes
// a whole emulated node down, and the Supervisor (supervisor.go) restarts
// the casualties with exponential backoff — except on down nodes, which
// stay dark until the scheduler moves the work or RecoverNode runs.

// CrashWorker kills the worker process on the given slot: every executor
// goroutine resident there dies for real — mid-batch tails and everything
// still queued for them are dropped (anchored roots recover via timeout +
// replay) — and a drainer keeps their bounded queues from wedging senders
// until the supervisor restarts them with fresh user-code instances
// (executor state loss, exactly as a Storm worker JVM crash). It returns
// how many executors were killed (0 when the slot hosts none or they are
// already dead).
func (eng *Engine) CrashWorker(slot cluster.SlotID) int {
	eng.mu.RLock()
	targets := append([]*liveExec(nil), eng.groups[slot]...)
	eng.mu.RUnlock()
	killed := eng.kill(targets)
	if killed > 0 {
		eng.emit(trace.WorkerCrashed, "", slot.String(),
			fmt.Sprintf("%d executor goroutines killed", killed))
	}
	return killed
}

// FailNode takes a worker node down: every executor on its slots dies and
// the node is fenced — the monitor stops reporting it and the generator
// marks it occupied, so Algorithm 1 reschedules the orphaned executors
// onto live nodes; once Apply has moved them, the supervisor restarts
// them there. It reports whether a live node was found.
func (eng *Engine) FailNode(id cluster.NodeID) bool {
	if _, ok := eng.cl.Node(id); !ok {
		return false
	}
	eng.mu.Lock()
	if eng.downNodes[id] {
		eng.mu.Unlock()
		return false
	}
	eng.downNodes[id] = true
	var targets []*liveExec
	for slot, g := range eng.groups {
		if slot.Node == id {
			targets = append(targets, g...)
		}
	}
	eng.mu.Unlock()
	killed := eng.kill(targets)
	eng.emit(trace.NodeFailed, "", string(id),
		fmt.Sprintf("%d executor goroutines killed", killed))
	return true
}

// RecoverNode brings a failed node back: it becomes schedulable again and
// the supervisor restarts, in place, whatever is still assigned there.
func (eng *Engine) RecoverNode(id cluster.NodeID) bool {
	eng.mu.Lock()
	if !eng.downNodes[id] {
		eng.mu.Unlock()
		return false
	}
	delete(eng.downNodes, id)
	eng.mu.Unlock()
	eng.emit(trace.NodeRecovered, "", string(id), "")
	return true
}

// NodeDown reports whether a node is currently failed.
func (eng *Engine) NodeDown(id cluster.NodeID) bool {
	eng.mu.RLock()
	defer eng.mu.RUnlock()
	return eng.downNodes[id]
}

// DownNodes lists currently failed nodes, sorted.
func (eng *Engine) DownNodes() []cluster.NodeID {
	eng.mu.RLock()
	defer eng.mu.RUnlock()
	out := make([]cluster.NodeID, 0, len(eng.downNodes))
	for id := range eng.downNodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// kill takes a set of executors through alive → dying → dead: close their
// die channels, reap the goroutines, reclaim spout-side pending state,
// and start queue drainers. It returns how many were actually alive.
func (eng *Engine) kill(targets []*liveExec) int {
	if !eng.started.Load() {
		return 0 // no goroutines to kill yet
	}
	now := time.Now()
	var dying []*liveExec
	eng.mu.Lock()
	for _, le := range targets {
		if le.state != stateAlive {
			continue
		}
		le.state = stateDying
		le.crashedAt = now
		le.dead.Store(true) // routers start dropping immediately
		close(le.die)
		dying = append(dying, le)
	}
	eng.mu.Unlock()
	if len(dying) == 0 {
		return 0
	}
	// Reap outside the lock: dying goroutines always exit promptly (their
	// blocking points — queue sends, sleeps — all select on die), but user
	// code may take a moment to return.
	for _, le := range dying {
		<-le.gone
	}
	eng.mu.Lock()
	for _, le := range dying {
		// The goroutine is gone, so its spout-side state is safe to read:
		// surrender the outstanding-roots gauge (those roots are lost until
		// replay re-registers them on the next incarnation).
		if le.kind == spoutExec && le.anchored {
			lost := int64(0)
			for _, p := range le.pendingRoots {
				if !p.failed {
					lost++
				}
			}
			eng.pendingRoots.Add(-lost)
		}
		if le.in != nil || le.ctl != nil {
			le.drainStop = make(chan struct{})
			le.drainDone = make(chan struct{})
			eng.wg.Add(1)
			go le.drainWhileDead(le.drainStop, le.drainDone)
		}
		le.state = stateDead
		eng.workerCrashes.Add(1)
	}
	eng.mu.Unlock()
	return len(dying)
}

// drainWhileDead discards a dead executor's incoming batches so senders
// blocked on its bounded queue unwedge. Data batches leave eng.pending
// (they will never be processed); everything drained counts as dropped.
// The supervisor stops the drainer before handing the queue to a fresh
// incarnation, so the queue never has two consumers.
func (le *liveExec) drainWhileDead(stop <-chan struct{}, done chan<- struct{}) {
	eng := le.eng
	defer eng.wg.Done()
	defer close(done)
	// A nil queue arm (bolts have no ctl, ackers no in) never fires.
	for {
		select {
		case <-stop:
			return
		case <-eng.stopCh:
			return
		case batch := <-le.in:
			eng.pending.Add(-int64(len(batch.msgs)))
			eng.dropped.Add(int64(len(batch.msgs)))
			eng.releaseInput(batch, 0)
		case batch := <-le.ctl:
			eng.dropped.Add(int64(len(batch)))
			eng.ctlPool.put(batch)
		}
	}
}
