package engine

import (
	"fmt"
	"time"

	"tstorm/internal/acker"
	"tstorm/internal/sim"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

type execKind int

const (
	spoutExec execKind = iota + 1
	boltExec
	ackerExec
)

// pendingRoot is a spout-side record of an outstanding (un-acked) root.
type pendingRoot struct {
	msgID  any
	emitAt sim.Time
	failed bool
	timer  *sim.Timer
}

// spoutLoopCost is the base CPU cost of one emit cycle even when the
// spout emits nothing.
var spoutLoopCost = Cycles(5*time.Microsecond, 2000)

// zombieRetention bounds how long failed pending entries are kept for
// late-completion measurement before being swept.
const zombieRetention = 5 * time.Minute

// msgRing is an executor's input queue: a power-of-two ring that doubles
// when full, so however long the queue gets a message is copied once in
// and once out.
type msgRing struct {
	buf  []message
	head int
	n    int
}

func (q *msgRing) push(m *message) {
	if q.n == len(q.buf) {
		grown := make([]message, max(2*len(q.buf), 16))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = *m
	q.n++
}

// pop moves the oldest message into out.
func (q *msgRing) pop(out *message) {
	slot := &q.buf[q.head]
	*out = *slot
	slot.in.Values = nil // let go of the payload
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

// rootEmit is one buffered spout emission; its n data messages are the
// next n of the executor's out buffer.
type rootEmit struct {
	root    tuple.ID
	initXor tuple.ID
	msgID   any
	n       int
}

// executor is one executor thread of one worker incarnation. It is also
// the event that ends its own service period (busy guarantees there is
// one outstanding at most), and it owns everything a service period
// produces until that event releases it to the fabric: cur, the message in
// service; out, the messages its execution sends; for a spout's emit
// cycle roots, which cuts out into per-root runs. The emitters handed to
// user code are the executor under another type (spoutEmitter,
// boltEmitter) and write into these buffers, which is why an emitter is
// valid only during the NextTuple or Execute call it was passed to.
type executor struct {
	w     *worker
	ts    *topoState
	id    topology.ExecutorID
	dense int
	comp  *topology.Component
	kind  execKind

	spout   Spout
	bolt    Bolt
	tracker *acker.Tracker
	cost    CostFn

	interval   time.Duration
	maxPending int

	queue msgRing
	busy  bool
	dead  bool

	cur    message
	out    []message
	roots  []rootEmit
	xorAcc tuple.ID // bolt: XOR of the edge IDs emitted while serving cur

	router *topology.Router
	local  []int // LocalOrShuffleGrouping scratch
	// cs caches the component's stats entry once the executor has run a
	// job — TopologyMetrics.Components lists only components that did.
	cs *ComponentStats

	pending     map[tuple.ID]*pendingRoot
	outstanding int

	// Stats (lifetime of this incarnation).
	processed int64
	emitted   int64
}

func (ex *executor) rt() *Runtime { return ex.w.rt }

func (ex *executor) stats() *ComponentStats {
	if ex.cs == nil {
		ex.cs = ex.ts.tm.Component(ex.id.Component)
	}
	return ex.cs
}

// enqueue queues a copy of m.
func (ex *executor) enqueue(m *message) {
	if ex.dead {
		return
	}
	ex.queue.push(m)
	ex.maybeStart()
}

// emitCycle is the message a spout queues for itself to run NextTuple
// (enqueue copies it; nothing writes to it).
var emitCycle = message{kind: msgEmit}

// emitTick is a spout executor as the event of its next emit cycle coming
// due. Each cycle schedules the next one when its service period ends, so
// one is outstanding at most.
type emitTick executor

func (t *emitTick) Fire() { (*executor)(t).enqueue(&emitCycle) }

// maybeStart begins servicing the queue head if the executor is idle and
// its worker is processing. User code runs at service start; its
// emissions are flushed when the service period ends.
func (ex *executor) maybeStart() {
	if ex.busy || ex.dead || ex.queue.n == 0 || !ex.w.processing() {
		return
	}
	rt := ex.rt()
	ex.queue.pop(&ex.cur)
	ex.busy = true
	speed := ex.w.ns.effectiveMHz(&rt.cfg)
	ex.out, ex.roots, ex.xorAcc = ex.out[:0], ex.roots[:0], 0
	cycles := ex.execute()
	rt.cpu[ex.dense] += cycles
	ex.stats().CPUCycles += cycles
	dur := time.Duration(cycles / (speed * 1e6) * float64(time.Second))
	if dur < 0 { // a CostFn may return anything; After clamped too
		dur = 0
	}
	rt.sim.AtEvent(rt.sim.Now().Add(dur), ex)
}

// Fire ends the service period maybeStart began: what the execution
// buffered goes out to the fabric, and the next queued message starts.
func (ex *executor) Fire() {
	ex.busy = false
	if ex.dead {
		return
	}
	rt := ex.rt()
	if ex.cur.kind == msgEmit {
		ex.flushSpoutEmits(rt.sim.Now())
		rt.sim.AtEvent(rt.sim.Now().Add(ex.interval), (*emitTick)(ex))
	} else {
		for i := range ex.out {
			rt.send(ex, ex.cur.gen, &ex.out[i])
		}
	}
	ex.maybeStart()
}

// workerSystemThreads is the number of always-spinning system threads
// (send + receive) each worker process runs besides its executors.
const workerSystemThreads = 2

// effectiveMHz is the per-thread CPU speed on this node right now. Storm
// 0.8 executor threads busy-spin on their disruptor queues, so every
// RESIDENT thread (executors plus each worker's system threads) consumes
// a core share whether or not it has work; each extra live worker process
// adds a context-switching penalty; and overcommitting the node's memory
// with worker footprints adds a paging penalty. Worker-node consolidation
// (§V) removes the last two and reduces the first.
func (ns *nodeState) effectiveMHz(cfg *Config) float64 {
	speed := ns.node.CoreMHz
	threads := ns.residentExecs + workerSystemThreads*ns.activeWorkers
	if threads > ns.node.Cores {
		speed *= float64(ns.node.Cores) / float64(threads)
	}
	if ns.activeWorkers > 1 {
		speed /= 1 + cfg.Cost.ContextSwitchPenalty*float64(ns.activeWorkers-1)
	}
	if cfg.WorkerMemMB > 0 && cfg.SwapPenalty > 0 {
		used := cfg.WorkerMemMB * float64(ns.activeWorkers)
		avail := float64(ns.node.MemMB) - cfg.ReservedMemMB
		if avail > 0 && used > avail {
			speed /= 1 + cfg.SwapPenalty*(used/avail-1)
		}
	}
	return speed
}

// execute runs the message in service and returns the CPU cycles it cost.
func (ex *executor) execute() float64 {
	j := &ex.cur
	switch j.kind {
	case msgEmit:
		return ex.executeEmit()
	case msgData:
		return ex.executeData(j)
	case msgInit:
		return ex.executeInit(j)
	case msgAck:
		return ex.executeAck(j)
	case msgComplete:
		return ex.executeComplete(j)
	case msgFail:
		return ex.executeFail(j)
	default:
		panic(fmt.Sprintf("engine: unknown message kind %d", j.kind))
	}
}

// executeEmit runs one spout emit cycle; the cycle's end of service
// schedules the next one.
func (ex *executor) executeEmit() float64 {
	rt := ex.rt()
	cycles := spoutLoopCost
	if ex.w.state == workerRunning && rt.sim.Now() >= ex.w.spoutHaltUntil &&
		(ex.maxPending == 0 || ex.outstanding < ex.maxPending) {
		ex.spout.NextTuple((*spoutEmitter)(ex))
		for range ex.roots {
			cycles += ex.cost(tuple.Tuple{})
		}
	}
	return cycles
}

// flushSpoutEmits sends the buffered root emissions, registers pending
// state and arms the per-root timeout timers.
func (ex *executor) flushSpoutEmits(now sim.Time) {
	rt := ex.rt()
	gen := ex.w.currentGen
	tm := ex.ts.tm
	sent := 0
	for i := range ex.roots {
		re := &ex.roots[i]
		msgs := ex.out[sent : sent+re.n]
		sent += re.n
		ex.emitted++
		cs := ex.stats()
		cs.Executed++
		cs.Emitted += int64(len(msgs))
		if re.root == 0 {
			// Unanchored: just send the data.
			for k := range msgs {
				rt.send(ex, gen, &msgs[k])
			}
			continue
		}
		tm.RootsEmitted++
		if len(msgs) == 0 {
			// No consumers: complete instantly.
			tm.Completions++
			tm.Latency.Add(now, 0)
			ex.spout.Ack(re.msgID)
			continue
		}
		root := re.root
		p := &pendingRoot{msgID: re.msgID, emitAt: now}
		ex.pending[root] = p
		ex.outstanding++
		p.timer = rt.sim.After(rt.cfg.MessageTimeout, func() {
			ex.timeoutRoot(root)
		})
		for k := range msgs {
			rt.send(ex, gen, &msgs[k])
		}
		if ex.ts.ackers > 0 {
			rt.send(ex, gen, &message{
				kind: msgInit, to: ex.ackerFor(root),
				root: root, xor: re.initXor, spoutDense: ex.dense,
				emitAt: now, size: rt.cfg.ControlMsgSize,
			})
		}
	}
}

// timeoutRoot fires when a root's ack timeout expires.
func (ex *executor) timeoutRoot(root tuple.ID) {
	if ex.dead {
		return
	}
	p := ex.pending[root]
	if p == nil || p.failed {
		return
	}
	p.failed = true
	ex.outstanding--
	tm := ex.ts.tm
	tm.Failed++
	tm.Failures.Add(ex.rt().sim.Now(), 1)
	ex.enqueue(&message{kind: msgFail, root: root})
}

// executeData runs a bolt on one input tuple and queues the input's ack
// behind whatever the bolt emitted.
func (ex *executor) executeData(j *message) float64 {
	ex.processed++
	ex.bolt.Execute(j.in, (*boltEmitter)(ex))
	cs := ex.stats()
	cs.Executed++
	cs.Emitted += int64(len(ex.out))
	if j.in.Root != 0 && ex.ts.ackers > 0 {
		ex.out = append(ex.out, message{
			kind: msgAck, to: ex.ackerFor(j.in.Root),
			root: j.in.Root, xor: j.in.Edge ^ ex.xorAcc,
			size: ex.rt().cfg.ControlMsgSize,
		})
	}
	return j.deserCost + ex.cost(j.in)
}

func (ex *executor) executeInit(j *message) float64 {
	ex.processed++
	// If every ack raced ahead of the init, the tree completed the moment
	// the init merged: the spout is notified as for a regular completion.
	c, done := ex.tracker.Init(j.root, j.xor, j.spoutDense, j.emitAt)
	return ex.acked(j, c, done)
}

func (ex *executor) executeAck(j *message) float64 {
	ex.processed++
	c, done := ex.tracker.Ack(j.root, j.xor, ex.rt().sim.Now())
	return ex.acked(j, c, done)
}

// acked finishes an acker's init or ack: a completed tree is reported to
// its spout.
func (ex *executor) acked(j *message, c acker.Completion, done bool) float64 {
	rt := ex.rt()
	if done {
		ex.out = append(ex.out, message{
			kind: msgComplete, to: c.SpoutExec,
			root: c.Root, size: rt.cfg.ControlMsgSize,
		})
	}
	return rt.cfg.AckerCost + j.deserCost
}

func (ex *executor) executeComplete(j *message) float64 {
	rt := ex.rt()
	cycles := rt.cfg.NotifyCost + j.deserCost
	p := ex.pending[j.root]
	if p == nil {
		return cycles
	}
	now := rt.sim.Now()
	tm := ex.ts.tm
	latencyMS := now.Sub(p.emitAt).Seconds() * 1e3
	tm.Latency.Add(now, latencyMS)
	tm.LatencyHist.Add(latencyMS)
	tm.Completions++
	if p.failed {
		tm.LateCompletions++
	} else {
		ex.outstanding--
	}
	p.timer.Cancel()
	delete(ex.pending, j.root)
	ex.spout.Ack(p.msgID)
	return cycles
}

func (ex *executor) executeFail(j *message) float64 {
	p := ex.pending[j.root]
	if p != nil && p.failed {
		ex.spout.Fail(p.msgID)
	}
	return ex.rt().cfg.NotifyCost
}

// sweepZombies drops failed pending entries whose late completion never
// arrived within the retention window.
func (ex *executor) sweepZombies() {
	if ex.dead {
		return
	}
	now := ex.rt().sim.Now()
	for root, p := range ex.pending {
		if p.failed && now.Sub(p.emitAt) > ex.rt().cfg.MessageTimeout+zombieRetention {
			delete(ex.pending, root)
		}
	}
	if ex.tracker != nil {
		ex.tracker.Sweep(now, ex.rt().cfg.MessageTimeout+zombieRetention)
	}
}

// ackerFor returns the dense index of the acker executor responsible for a
// root. The topology must have ackers.
func (ex *executor) ackerFor(root tuple.ID) int {
	return ex.ts.ackerBase + int(uint64(root)%uint64(ex.ts.ackers))
}

// ---- emission ----

// routeEmission resolves one logical emission to per-target data messages
// appended to ex.out. It returns how many and the XOR of their new edge
// IDs (for anchoring); ok is false when the stream is not declared.
func (ex *executor) routeEmission(stream string, vals tuple.Values, root tuple.ID) (n int, xorAcc tuple.ID, ok bool) {
	if stream == "" {
		stream = topology.DefaultStream
	}
	os := ex.router.Stream(stream)
	if os == nil {
		return 0, 0, false
	}
	rt := ex.rt()
	size := tuple.SizeOf(vals)
	for ei := range os.Edges {
		e := &os.Edges[ei]
		var local []int
		if e.Edge.Grouping.Type == topology.LocalOrShuffleGrouping {
			local = ex.localTasks(e.Edge.Consumer)
		}
		for _, idx := range ex.router.Targets(e, vals, local) {
			var eid tuple.ID
			if root != 0 {
				eid = rt.newID()
				xorAcc ^= eid
			}
			ex.emitData(ex.ts.base+e.First+idx, stream, vals, size, root, eid)
			n++
		}
	}
	return n, xorAcc, true
}

// localTasks lists the consumer's tasks hosted by this very worker —
// LocalOrShuffleGrouping's locality set — into the executor's scratch.
func (ex *executor) localTasks(consumer string) []int {
	local := ex.local[:0]
	for _, peer := range ex.w.execList {
		if peer.id.Component == consumer && !peer.dead {
			local = append(local, peer.id.Index)
		}
	}
	ex.local = local
	return local
}

// routeDirect resolves an EmitDirect call to a single data message
// appended to ex.out, and returns its new edge ID.
func (ex *executor) routeDirect(consumer string, taskIndex int, stream string, vals tuple.Values, root tuple.ID) (tuple.ID, bool) {
	if stream == "" {
		stream = topology.DefaultStream
	}
	rt := ex.rt()
	cons, ok := ex.ts.app.Topology.Component(consumer)
	if !ok || taskIndex < 0 || taskIndex >= cons.Parallelism {
		return 0, false
	}
	if ex.router.Stream(stream) == nil {
		return 0, false
	}
	var eid tuple.ID
	if root != 0 {
		eid = rt.newID()
	}
	to := rt.dense[topology.ExecutorID{Topology: ex.id.Topology, Component: consumer, Index: taskIndex}]
	ex.emitData(to, stream, vals, tuple.SizeOf(vals), root, eid)
	return eid, true
}

// emitData appends one data tuple for the executor with dense index to.
func (ex *executor) emitData(to int, stream string, vals tuple.Values, size int, root, edge tuple.ID) {
	ex.out = append(ex.out, message{
		kind: msgData,
		to:   to,
		in: tuple.Tuple{
			Root: root, Edge: edge, Stream: stream,
			SrcComponent: ex.comp.Name, SrcTask: ex.id.Index,
			Values: vals, Size: size,
		},
		size: size,
	})
}

// spoutEmitter is a spout executor as the SpoutEmitter its NextTuple gets:
// every emission becomes one entry of the executor's roots.
type spoutEmitter executor

var _ SpoutEmitter = (*spoutEmitter)(nil)

func (e *spoutEmitter) Emit(stream string, vals tuple.Values) {
	ex := (*executor)(e)
	if n, _, ok := ex.routeEmission(stream, vals, 0); ok {
		ex.roots = append(ex.roots, rootEmit{n: n})
	}
}

func (e *spoutEmitter) EmitWithID(stream string, vals tuple.Values, msgID any) {
	ex := (*executor)(e)
	root := tuple.ID(0)
	if ex.ts.ackers > 0 {
		root = ex.rt().newID()
	}
	if n, xorAcc, ok := ex.routeEmission(stream, vals, root); ok {
		ex.roots = append(ex.roots, rootEmit{root: root, initXor: xorAcc, msgID: msgID, n: n})
	}
}

func (e *spoutEmitter) EmitDirect(consumer string, taskIndex int, stream string, vals tuple.Values) {
	ex := (*executor)(e)
	if _, ok := ex.routeDirect(consumer, taskIndex, stream, vals, 0); ok {
		ex.roots = append(ex.roots, rootEmit{n: 1})
	}
}

// boltEmitter is a bolt executor as the Emitter its Execute gets:
// emissions are anchored to the tuple in service.
type boltEmitter executor

var _ Emitter = (*boltEmitter)(nil)

func (e *boltEmitter) Emit(stream string, vals tuple.Values) {
	ex := (*executor)(e)
	if _, xorAcc, ok := ex.routeEmission(stream, vals, ex.cur.in.Root); ok {
		ex.xorAcc ^= xorAcc
	}
}

func (e *boltEmitter) EmitDirect(consumer string, taskIndex int, stream string, vals tuple.Values) {
	ex := (*executor)(e)
	if eid, ok := ex.routeDirect(consumer, taskIndex, stream, vals, ex.cur.in.Root); ok {
		ex.xorAcc ^= eid
	}
}
