package engine

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"tstorm/internal/acker"
	"tstorm/internal/sim"
	"tstorm/internal/topology"
	"tstorm/internal/trace"
	"tstorm/internal/tuple"
)

type workerState int

const (
	workerStarting workerState = iota + 1
	workerRunning
	workerStopping // T-Storm drain: processes but emits no new roots
	workerDead
)

// worker is one worker process (JVM analog) on a slot, hosting executors
// of exactly one topology for one assignment generation.
type worker struct {
	rt *Runtime
	ts *topoState
	ns *nodeState
	ss *slotState
	// gen is the assignment generation the worker was created for;
	// currentGen is the newest generation it serves (bumped in place when
	// its slot's executor set is unchanged across a re-assignment).
	gen        int64
	currentGen *generation
	// lastApplied is the newest assignment ID the supervisor reconciled
	// on this worker, for idempotency across sync passes.
	lastApplied int64

	state          workerState
	spoutHaltUntil sim.Time

	// byDense indexes the worker's executors by dense index - ts.base (nil
	// for executors of the topology hosted elsewhere): one pointer per
	// executor of the topology per worker, for a lookup without hashing.
	byDense  []*executor
	execList []*executor // sorted by executor ID
	// inbound buffers messages that arrive while the worker is still
	// starting — the transport layer keeps retrying connections until the
	// peer is up rather than dropping, as Storm's ZeroMQ/Netty client does.
	inbound []message
}

// accepting reports whether inbound messages may be enqueued or buffered.
func (w *worker) accepting() bool {
	return w.state == workerStarting || w.state == workerRunning || w.state == workerStopping
}

// executor returns the worker's executor with the given dense index, nil
// when it hosts none — which includes every index of another topology (a
// stale message reaching a slot that changed hands).
func (w *worker) executor(dense int) *executor {
	if i := dense - w.ts.base; uint(i) < uint(len(w.byDense)) {
		return w.byDense[i]
	}
	return nil
}

// processing reports whether executors may service their queues.
func (w *worker) processing() bool {
	return w.state == workerRunning || w.state == workerStopping
}

// newWorker launches a worker process on a slot for the given executors.
// It is immediately visible as a process (consuming a context-switch
// share); its executors come alive after WorkerStartup.
func (r *Runtime) newWorker(ns *nodeState, ss *slotState, g *generation, execIDs []topology.ExecutorID) *worker {
	ts := g.ts
	app := ts.app
	w := &worker{
		rt: r, ts: ts, ns: ns, ss: ss,
		gen: g.id, currentGen: g, lastApplied: g.id,
		state:   workerStarting,
		byDense: make([]*executor, ts.n),
	}
	ns.activeWorkers++
	ns.residentExecs += len(execIDs)
	sorted := append([]topology.ExecutorID(nil), execIDs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	for _, eid := range sorted {
		comp, _ := app.Topology.Component(eid.Component)
		ex := &executor{
			w: w, ts: ts, id: eid, dense: r.dense[eid], comp: comp,
			cost:    app.costFor(eid.Component),
			pending: make(map[tuple.ID]*pendingRoot),
			router:  topology.NewRouter(app.Topology, comp, eid.Index),
		}
		switch {
		case eid.Component == topology.AckerComponent:
			ex.kind = ackerExec
			ex.tracker = acker.NewTracker()
		case comp.Kind == topology.SpoutKind:
			ex.kind = spoutExec
			ex.spout = app.Spouts[eid.Component]()
			ex.interval = app.spoutIntervalFor(eid.Component)
			ex.maxPending = app.MaxPending[eid.Component]
		default:
			ex.kind = boltExec
			ex.bolt = app.Bolts[eid.Component]()
		}
		w.byDense[ex.dense-ts.base] = ex
		w.execList = append(w.execList, ex)
	}
	r.sim.After(r.cfg.WorkerStartup, w.start)
	return w
}

// start transitions a worker from starting to running: component instances
// are opened/prepared and spout emit loops begin (after any halt delay).
func (w *worker) start() {
	if w.state != workerStarting {
		return
	}
	w.state = workerRunning
	r := w.rt
	r.emit(trace.WorkerStarted, w.ts.name, w.ss.id.String(),
		fmt.Sprintf("gen=%d execs=%d", w.gen, len(w.execList)))
	// Connection-pending messages: the slot's pre-worker buffer first,
	// then what arrived while this worker was starting.
	buffered := append(w.ss.pending, w.inbound...)
	w.ss.pending = nil
	w.inbound = nil
	for _, ex := range w.execList {
		ctx := &Context{
			Topology:    ex.id.Topology,
			Component:   ex.id.Component,
			Index:       ex.id.Index,
			Parallelism: ex.comp.Parallelism,
			Rand:        rand.New(rand.NewPCG(r.cfg.Seed^uint64(ex.dense), uint64(ex.dense)*0x9e3779b9)),
		}
		switch ex.kind {
		case spoutExec:
			ex.spout.Open(ctx)
			ex.enqueue(&emitCycle)
			startSweep(ex)
		case boltExec:
			ex.bolt.Prepare(ctx)
			ex.maybeStart() // messages may have queued while stopping→running races
		case ackerExec:
			startSweep(ex)
		}
	}
	// Deliver everything that arrived while the connection was pending.
	for i := range buffered {
		m := &buffered[i]
		if ex := w.executor(m.to); ex != nil {
			ex.enqueue(m)
		} else {
			r.drop(m)
		}
	}
}

func startSweep(ex *executor) {
	var tick func()
	tick = func() {
		if ex.dead {
			return
		}
		ex.sweepZombies()
		ex.rt().sim.After(time.Minute, tick)
	}
	ex.rt().sim.After(time.Minute, tick)
}

// stop puts the worker into the draining state (T-Storm): no new roots
// are emitted but queued work completes and inbound messages are accepted.
func (w *worker) stop() {
	if w.state == workerStarting || w.state == workerRunning {
		w.state = workerStopping
		w.rt.emit(trace.WorkerStopping, w.ts.name, w.ss.id.String(), "draining")
	}
}

// kill terminates the worker process: queued jobs are dropped, executors
// die, and the process stops counting against the node.
func (w *worker) kill() {
	if w.state == workerDead {
		return
	}
	w.state = workerDead
	w.rt.emit(trace.WorkerKilled, w.ts.name, w.ss.id.String(), "")
	w.ns.activeWorkers--
	w.ns.residentExecs -= len(w.execList)
	for _, ex := range w.execList {
		ex.dead = true
		ex.queue = msgRing{}
	}
}

// reconcileNode applies one topology's assignment to one node's slots —
// the supervisor logic. In Storm mode changed slots are restarted
// abruptly; in T-Storm mode old workers drain for ShutdownDelay, new
// workers register with the slot dispatcher, and spouts halt until bolts
// are ready (§IV-D).
func (r *Runtime) reconcileNode(ns *nodeState, g *generation) {
	a := g.a
	desired := make(map[int][]topology.ExecutorID)
	for _, eid := range g.ts.app.Topology.Executors() {
		s, ok := a.Slot(eid)
		if !ok || s.Node != ns.node.ID {
			continue
		}
		desired[s.Port] = append(desired[s.Port], eid)
	}
	now := r.sim.Now()
	haltUntil := now.Add(r.cfg.WorkerStartup + r.cfg.SpoutHaltDelay)
	for _, port := range ns.ports {
		ss := ns.slots[port]
		newSet := desired[port]
		sort.Slice(newSet, func(i, j int) bool { return newSet[i].Less(newSet[j]) })
		cur := ss.current
		if cur != nil && cur.state == workerDead {
			cur = nil
			ss.current = nil
		}
		if cur != nil && cur.ts != g.ts {
			// Slot owned by another topology; assignments were validated
			// not to overlap, so nothing to do here.
			continue
		}
		if cur == nil && len(newSet) == 0 {
			// Nothing runs here and nothing will: connect retries give up.
			for i := range ss.pending {
				r.drop(&ss.pending[i])
			}
			ss.pending = nil
			continue
		}
		if cur != nil && cur.lastApplied >= a.ID {
			continue
		}
		if cur != nil && executorSetsEqual(cur.execList, newSet) {
			// Unchanged slot: the worker survives and serves the new
			// generation too.
			cur.lastApplied = a.ID
			cur.currentGen = g
			if r.cfg.SmoothReassign {
				ss.dispatcher.Register(a.ID, cur)
				cur.spoutHaltUntil = haltUntil
			}
			continue
		}
		// Changed slot.
		if r.cfg.SmoothReassign {
			if cur != nil {
				old := cur
				old.stop()
				r.sim.After(r.cfg.ShutdownDelay, func() {
					old.kill()
					// Unregister every generation still routing to it.
					for _, id := range []int64{old.gen, old.currentGen.id} {
						if got, ok := ss.dispatcher.Route(id); ok && got == any(old) {
							ss.dispatcher.Unregister(id)
						}
					}
				})
			}
			ss.current = nil
			if len(newSet) > 0 {
				w := r.newWorker(ns, ss, g, newSet)
				w.spoutHaltUntil = haltUntil
				ss.current = w
				ss.dispatcher.Register(a.ID, w)
			}
		} else {
			if cur != nil {
				cur.kill()
			}
			ss.current = nil
			if len(newSet) > 0 {
				ss.current = r.newWorker(ns, ss, g, newSet)
			}
		}
	}
}

func executorSetsEqual(have []*executor, want []topology.ExecutorID) bool {
	if len(have) != len(want) {
		return false
	}
	for i := range have {
		if have[i].id != want[i] {
			return false
		}
	}
	return true
}
