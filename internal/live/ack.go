package live

import (
	"fmt"
	"reflect"
	"time"

	"tstorm/internal/acker"
	"tstorm/internal/topology"
	"tstorm/internal/trace"
	"tstorm/internal/tuple"
)

// This file ports the simulation's at-least-once machinery to wall clock:
// anchored spout emissions register with the topology's acker executors
// (reusing internal/acker's XOR Tracker), bolts ack every anchored input,
// completions flow back to the originating spout, and a per-spout timeout
// wheel fails roots whose acks stop arriving so reliable spouts replay.
//
// Threading: acker executors never block — completion notifications are
// appended to the spout's mutex-guarded event slice and drained on the
// spout's own goroutine — so the cycle "spout blocked on a full bolt
// queue → bolt blocked sending an ack → acker blocked notifying the
// spout" cannot close into a deadlock.
//
// Sharding: roots hash across the topology's acker tasks (power-of-two
// counts use a mask), and senders pre-combine — successive XOR acks to
// the same root fold into one ctl message inside the sender's ctlSink
// before they ever hit a channel, which is sound because XOR folding is
// exactly what the acker would do with them anyway.

type ctlKind uint8

const (
	ctlInit ctlKind = iota + 1
	ctlAck
)

// ctlMsg is one control-plane message to an acker executor: a spout's
// root registration (init) or a bolt's XOR ack.
type ctlMsg struct {
	kind       ctlKind
	root       tuple.ID
	xor        tuple.ID
	spoutDense int       // init only: the originating spout
	emitAt     time.Time // init only: the root's (first-)emit instant
}

// ackEvent is a completion notification travelling acker → spout. at is
// the instant the acker observed the tree complete, carried with the
// event so the spout's completion-latency metric measures the protocol,
// not the spout's drain cadence. Failures carry no event: the spout's own
// timeout wheel is the failure authority, so acker crashes cannot lose
// timeouts.
type ackEvent struct {
	root tuple.ID
	late bool
	at   time.Time
}

// livePendingRoot is a spout's record of one outstanding anchored root.
// emitAt is the msgID's FIRST emit instant — replays inherit it, so the
// completion latency of a root that timed out and replayed spans the whole
// ordeal, matching the simulation's metric.
type livePendingRoot struct {
	msgID  any
	emitAt time.Time
	failed bool
}

// liveRootEmit is one anchored spout emission buffered during NextTuple,
// registered and init-sent after the cycle's data deliveries flush.
type liveRootEmit struct {
	root    tuple.ID
	initXor tuple.ID
	msgID   any
}

// liveZombieRetention bounds how long failed pending entries are kept for
// late-completion measurement before being swept.
const liveZombieRetention = 5 * time.Minute

// ackerIndex maps a root to its acker shard. The executor set is fixed
// after Submit, so le.ackers (cached at Start) is the authoritative task
// list; power-of-two shard counts — the common configuration — use a mask
// instead of the modulo.
func (le *liveExec) ackerIndex(root tuple.ID) int {
	n := len(le.ackers)
	if n&(n-1) == 0 {
		return int(uint64(root) & uint64(n-1))
	}
	return int(uint64(root) % uint64(n))
}

// ctlSink accumulates one executor's outgoing control messages between
// flushes, dense by acker shard index. rootPos remembers where each
// root's ack landed so later acks to the same root XOR-fold in place
// (sender-side combining); touched lists the shards with pending batches
// in first-touch order. Replaces the old per-message linear scan over
// accumulators, which taxed every ack O(distinct ackers).
type ctlSink struct {
	msgs    [][]ctlMsg       // per shard; nil = no pending batch
	touched []int            // shard indexes with pending batches
	rootPos map[tuple.ID]int // root → position in its shard's batch (acks only)
}

// ensure sizes the dense shard bank (idempotent; shard count is fixed).
func (s *ctlSink) ensure(n int) {
	if len(s.msgs) < n {
		s.msgs = make([][]ctlMsg, n)
	}
	if s.rootPos == nil {
		s.rootPos = make(map[tuple.ID]int)
	}
}

// addAck buffers one XOR ack, folding it into an already-buffered ack for
// the same root when possible. Callers guarantee len(le.ackers) > 0.
func (le *liveExec) addAck(root, xor tuple.ID) {
	s := &le.ctlSink
	s.ensure(len(le.ackers))
	if pos, ok := s.rootPos[root]; ok {
		ai := le.ackerIndex(root)
		s.msgs[ai][pos].xor ^= xor
		le.eng.ctlCombined.Add(1)
		return
	}
	ai := le.ackerIndex(root)
	if s.msgs[ai] == nil {
		s.msgs[ai] = le.eng.ctlPool.get()
		s.touched = append(s.touched, ai)
	}
	s.rootPos[root] = len(s.msgs[ai])
	s.msgs[ai] = append(s.msgs[ai], ctlMsg{kind: ctlAck, root: root, xor: xor})
}

// addInit buffers one root registration. Inits are never folded (each
// root registers exactly once per emission) and never share roots with
// buffered acks on the spout, so rootPos is left alone.
func (le *liveExec) addInit(root, xor tuple.ID, spoutDense int, emitAt time.Time) {
	s := &le.ctlSink
	s.ensure(len(le.ackers))
	ai := le.ackerIndex(root)
	if s.msgs[ai] == nil {
		s.msgs[ai] = le.eng.ctlPool.get()
		s.touched = append(s.touched, ai)
	}
	s.msgs[ai] = append(s.msgs[ai], ctlMsg{
		kind: ctlInit, root: root, xor: xor, spoutDense: spoutDense, emitAt: emitAt,
	})
}

// flushCtl ships every buffered control batch to its acker shard. Each
// entry is detached from the sink before sendCtl takes ownership, so an
// abort mid-flush can never double-release a batch; remaining batches
// after an abort are recycled unsent (their roots replay via the wheel).
func (le *liveExec) flushCtl(die <-chan struct{}) bool {
	s := &le.ctlSink
	if len(s.touched) == 0 {
		return true
	}
	ok := true
	for _, ai := range s.touched {
		msgs := s.msgs[ai]
		s.msgs[ai] = nil
		if msgs == nil {
			continue
		}
		if !ok {
			le.eng.ctlPool.put(msgs)
			continue
		}
		if !le.eng.sendCtl(le, le.ackers[ai], msgs, die) {
			ok = false
		}
	}
	s.touched = s.touched[:0]
	if len(s.rootPos) > 0 {
		clear(s.rootPos)
	}
	return ok
}

// dropCtl discards every buffered control batch without sending — the
// dying-bolt path: acking inputs whose downstream emissions were dropped
// would falsely complete their roots.
func (le *liveExec) dropCtl() {
	s := &le.ctlSink
	for _, ai := range s.touched {
		if m := s.msgs[ai]; m != nil {
			le.eng.ctlPool.put(m)
			s.msgs[ai] = nil
		}
	}
	s.touched = s.touched[:0]
	if len(s.rootPos) > 0 {
		clear(s.rootPos)
	}
}

// sendCtl enqueues a control batch at an acker, blocking on a full queue
// with stop/die escapes. Control messages are counted as real traffic —
// acker placement generates network load exactly as in Storm — but, being
// tiny, pay no serialization or wire cost. Batches to dead ackers are
// dropped; the spout wheel recovers the affected roots. sendCtl owns msgs
// on every outcome: a successful channel send hands it to the acker,
// every other path (remote encode, drop, abort) recycles it.
func (eng *Engine) sendCtl(from *liveExec, to *liveExec, msgs []ctlMsg, die <-chan struct{}) bool {
	if to == nil || len(msgs) == 0 {
		eng.ctlPool.put(msgs)
		return true
	}
	n := int64(len(msgs))
	rt := eng.routes.Load()
	if !rt.local[to.dense] {
		// Acker in another worker process: ship the batch as a ctl frame
		// (counted as traffic below, like the channel path — the sender
		// owns all counting), encoded into the sending executor's scratch.
		// The encode copies the batch out, so it is recycled here either
		// way.
		from.wireScratch = appendCtlFrame(from.wireScratch, to.id, msgs)
		sent := eng.remoteSend(rt.slotOf[to.dense], from.wireScratch)
		eng.ctlPool.put(msgs)
		if !sent {
			eng.dropped.Add(n)
			return true
		}
	} else {
		if to.dead.Load() {
			eng.dropped.Add(n)
			eng.ctlPool.put(msgs)
			return true
		}
		select {
		case to.ctl <- msgs:
		case <-eng.stopCh:
			eng.ctlPool.put(msgs)
			return false
		case <-die:
			eng.ctlPool.put(msgs)
			return false
		}
	}
	srcSlot, dstSlot := rt.slotOf[from.dense], rt.slotOf[to.dense]
	hop := hopLocal
	switch {
	case srcSlot == dstSlot:
	case srcSlot.Node == dstSlot.Node:
		hop = hopInterProc
		eng.interProcSent.Add(n)
	default:
		hop = hopInterNode
		eng.interNodeSent.Add(n)
	}
	eng.tuplesSent.Add(n)
	if m := eng.edges.Load(); m != nil {
		m.counts[from.dense*m.n+to.dense].byHop[hop].Add(n)
	}
	eng.traffic.Add(from.dense, to.dense, float64(n))
	return true
}

// ---- acker executor ----

// ackAcc batches one drain's completion events for one destination spout,
// so a drain costs one mailbox append (or one ack frame) per spout
// instead of one per completion.
type ackAcc struct {
	sp  *liveExec
	evs []ackEvent
}

// runAcker drives one acker executor incarnation: fold init/ack batches
// into a fresh Tracker (tracker state dies with the incarnation, as a
// Storm acker's does) and notify spouts of completions, batched per spout
// per drain. A slow hygiene tick expires roots whose acks stopped
// arriving — e.g. dropped on a crashed worker — and sweeps zombies,
// bounding the tracker's memory; the expiries themselves are discarded
// because the spout wheel is the failure authority.
func (le *liveExec) runAcker(die <-chan struct{}) {
	eng := le.eng
	tracker := acker.NewTracker()
	timeout := eng.AckTimeout()
	hygiene := timeout / 4
	if hygiene < 5*time.Millisecond {
		hygiene = 5 * time.Millisecond
	}
	tk := time.NewTicker(hygiene)
	defer tk.Stop()
	for {
		select {
		case <-eng.stopCh:
			return
		case <-die:
			return
		case batch := <-le.ctl:
			t0 := time.Now()
			now := eng.simNow(t0)
			rt := eng.routes.Load()
			for _, m := range batch {
				var (
					c    acker.Completion
					done bool
				)
				switch m.kind {
				case ctlInit:
					c, done = tracker.Init(m.root, m.xor, m.spoutDense, eng.simNow(m.emitAt))
				case ctlAck:
					c, done = tracker.Ack(m.root, m.xor, now)
				}
				if done {
					le.stashCompletion(rt, c, t0)
				}
			}
			le.flushCompletions(rt)
			le.processed.Add(int64(len(batch)))
			eng.ctlPool.put(batch)
			le.cpuNanos.Add(int64(time.Since(t0)))
		case <-tk.C:
			t0 := time.Now()
			now := eng.simNow(t0)
			tracker.ExpireBefore(now.Add(-timeout))
			tracker.Sweep(now, timeout+liveZombieRetention)
			le.cpuNanos.Add(int64(time.Since(t0)))
		}
	}
}

// stashCompletion records a finished root in the drain's per-spout
// accumulator, stamped with the completion instant. A completion for a
// stale dense index is discarded.
func (le *liveExec) stashCompletion(rt *routeTable, c acker.Completion, at time.Time) {
	if c.SpoutExec < 0 || c.SpoutExec >= len(rt.byDense) {
		return
	}
	sp := rt.byDense[c.SpoutExec]
	if sp.kind != spoutExec {
		return
	}
	ev := ackEvent{root: c.Root, late: c.Late, at: at}
	for i := range le.ackAccs {
		if le.ackAccs[i].sp == sp {
			le.ackAccs[i].evs = append(le.ackAccs[i].evs, ev)
			return
		}
	}
	le.ackAccs = append(le.ackAccs, ackAcc{sp: sp, evs: append(le.eng.ackPool.get(), ev)})
}

// flushCompletions hands the drain's accumulated completions to their
// spouts: one mailbox append per local spout, one ack frame per remote
// one (this used to be one TCP frame per completion). The appends never
// block, so the acker always drains regardless of what spouts are doing;
// events for a crashed spout land in its mailbox and are discarded by the
// next incarnation's drain.
func (le *liveExec) flushCompletions(rt *routeTable) {
	if len(le.ackAccs) == 0 {
		return
	}
	eng := le.eng
	for i := range le.ackAccs {
		sp, evs := le.ackAccs[i].sp, le.ackAccs[i].evs
		le.ackAccs[i] = ackAcc{}
		if !rt.local[sp.dense] {
			// Spout in another worker process: an undeliverable frame
			// recovers via the spout's wheel.
			le.wireScratch = appendAckFrame(le.wireScratch, sp.id, evs)
			eng.remoteSend(rt.slotOf[sp.dense], le.wireScratch)
		} else {
			sp.postAcks(evs)
		}
		eng.ackPool.put(evs)
	}
	le.ackAccs = le.ackAccs[:0]
}

// ---- spout side ----

// postAcks appends completions to the spout's mailbox (copying them: evs
// stays the caller's) and wakes the spout if it is asleep. Called from
// acker goroutines and, for a remote acker's ack frame, from Ingest; it
// never blocks.
func (le *liveExec) postAcks(evs []ackEvent) {
	le.ackMu.Lock()
	if le.ackEvents == nil {
		le.ackEvents = le.eng.ackPool.get()
	}
	le.ackEvents = append(le.ackEvents, evs...)
	le.ackMu.Unlock()
	select {
	case le.ackWake <- struct{}{}:
	default: // a wake is already waiting
	}
}

// comparableMsgID reports whether msgID can key the first-emit map.
func comparableMsgID(msgID any) bool {
	return msgID != nil && reflect.TypeOf(msgID).Comparable()
}

// effMaxPending resolves a spout's pending cap: its App's per-spout value
// wins, else the engine-level default. 0 = unlimited.
func (le *liveExec) effMaxPending() int {
	if mp, ok := le.app.MaxPending[le.id.Component]; ok && mp > 0 {
		return mp
	}
	return le.eng.MaxPending()
}

// drainAckEvents applies queued completion notifications: cancel the
// wheel, retire the pending entry, record completion latency from the
// first emit to the instant the acker observed the tree complete, and
// call the user spout's Ack. Runs on the spout goroutine.
func (le *liveExec) drainAckEvents() {
	le.ackMu.Lock()
	events := le.ackEvents
	le.ackEvents = nil
	le.ackMu.Unlock()
	if len(events) == 0 {
		return
	}
	eng := le.eng
	t0 := time.Now()
	for _, ev := range events {
		p := le.pendingRoots[ev.root]
		if p == nil {
			continue // completed root of a previous incarnation
		}
		le.wheel.cancel(ev.root)
		delete(le.pendingRoots, ev.root)
		if !p.failed {
			le.outstanding--
			eng.pendingRoots.Add(-1)
		}
		eng.acked.Add(1)
		if p.failed || ev.late {
			eng.lateAcked.Add(1)
		}
		// The completion instant travels with the event; the drain instant
		// would fold the spout's drain cadence into the protocol's latency.
		at := ev.at
		if at.IsZero() {
			at = t0
		}
		eng.rootLat.Add(at.Sub(p.emitAt).Seconds() * 1e3)
		if le.spans != nil && eng.sampledRoot(ev.root) {
			le.recordAck(ev.root, at)
		}
		if comparableMsgID(p.msgID) {
			delete(le.firstEmit, p.msgID)
		}
		le.spout.Ack(p.msgID)
	}
	eng.ackPool.put(events)
	le.cpuNanos.Add(int64(time.Since(t0)))
}

// expireDueRoots advances the timeout wheel and fails every root whose
// deadline passed: the entry stays as a zombie (a late completion is still
// measured, as in the sim), outstanding drops so MaxPending frees a slot,
// and the user spout's Fail triggers the replay.
func (le *liveExec) expireDueRoots(now time.Time) {
	due := le.wheel.expire(now)
	if len(due) == 0 {
		return
	}
	eng := le.eng
	for _, root := range due {
		p := le.pendingRoots[root]
		if p == nil || p.failed {
			continue
		}
		p.failed = true
		le.outstanding--
		eng.pendingRoots.Add(-1)
		eng.failedRoots.Add(1)
		le.spout.Fail(p.msgID)
	}
}

// sweepSpoutZombies drops failed pending entries whose late completion
// never arrived within the retention window.
func (le *liveExec) sweepSpoutZombies(now time.Time) {
	cutoff := le.eng.AckTimeout() + liveZombieRetention
	for root, p := range le.pendingRoots {
		if p.failed && now.Sub(p.emitAt) > cutoff {
			delete(le.pendingRoots, root)
		}
	}
}

// flushAnchored registers the flush's anchored roots and sends their init
// messages, after the data deliveries were enqueued. Re-emits of an
// already-pending msgID are replays: they inherit the first-emit time and
// are counted (and traced) as such.
func (le *liveExec) flushAnchored(em *spoutEmitter, die <-chan struct{}) bool {
	if len(em.rootEmits) == 0 {
		return true
	}
	eng := le.eng
	now := time.Now()
	timeout := eng.AckTimeout()
	for _, re := range em.rootEmits {
		emitAt := now
		if comparableMsgID(re.msgID) {
			if first, ok := le.firstEmit[re.msgID]; ok {
				emitAt = first
				eng.replayed.Add(1)
				if eng.cfg.Trace != nil {
					eng.emit(trace.TupleReplayed, le.id.Topology, "",
						fmt.Sprintf("%s re-emitted msgID %v as root %x",
							le.id, re.msgID, uint64(re.root)))
				}
			} else {
				le.firstEmit[re.msgID] = now
			}
		}
		le.pendingRoots[re.root] = &livePendingRoot{msgID: re.msgID, emitAt: emitAt}
		le.outstanding++
		eng.pendingRoots.Add(1)
		le.wheel.add(re.root, timeout, now)
		if len(le.ackers) > 0 {
			le.addInit(re.root, re.initXor, le.dense, emitAt)
		}
		if le.spans != nil && eng.sampledRoot(re.root) {
			le.recordRoot(re.root, emitAt)
		}
	}
	return le.flushCtl(die)
}

// ackerFor returns the acker executor responsible for a root (nil when
// the topology has none). Retained for tests and tooling; the hot path
// uses the cached le.ackers + ackerIndex instead.
func (le *liveExec) ackerFor(rt *routeTable, root tuple.ID) *liveExec {
	tasks := rt.byComp[compKey{topo: le.id.Topology, comp: topology.AckerComponent}]
	if len(tasks) == 0 {
		return nil
	}
	return tasks[int(uint64(root)%uint64(len(tasks)))]
}
