package live

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"tstorm/internal/engine"
	"tstorm/internal/metrics"
	"tstorm/internal/topology"
	"tstorm/internal/tracing"
	"tstorm/internal/tuple"
)

type execKind int

const (
	spoutExec execKind = iota + 1
	boltExec
	ackerExec
)

// execState is an executor's supervision state, guarded by eng.mu.
type execState int

const (
	stateAlive execState = iota
	// stateDying: die closed, goroutine may still be winding down.
	stateDying
	// stateDead: goroutine reaped, drainer (if any) discarding its queue;
	// the supervisor may restart it.
	stateDead
	// stateRemote: the executor runs in another worker process; this
	// liveExec is a routing proxy (no goroutine, no user code). A
	// migration may promote it to stateAlive — or demote a local executor
	// here, starting a pump that forwards stranded queue contents.
	stateRemote
)

// liveMsg is one tuple in flight between two executors. For remote hops
// (different slots) the payload travels serialized in enc (+extras for
// values the codec passes by reference) and tup.Values is nil until the
// receiver decodes it — the receiver pays deserialization CPU, as a Storm
// worker would.
type liveMsg struct {
	tup    tuple.Tuple
	enc    []byte
	extras []any
	// bornAt is the wall-clock instant the root tuple left its spout,
	// propagated downstream for end-to-end latency at terminal bolts.
	bornAt time.Time
	from   int // producer's dense index
	// parentSpan and sentAt carry the tracing anchor chain for sampled
	// roots only (tracing.go): the producer's own span identity (its input
	// edge, or the root for spout emissions) and the hand-off instant.
	// Zero — and never written — for unsampled tuples, so the zero-alloc
	// hot path is untouched.
	parentSpan uint64
	sentAt     int64
}

// inBatch is one element of an executor's input queue: a batch of
// transfers and, for a batch Ingest decoded off the wire, the pooled slab
// every msgs[i].enc aliases (nil for a batch built in this process, whose
// messages carry pooled encode buffers of their own). The consumer
// releases both together (releaseInput).
type inBatch struct {
	msgs []liveMsg
	slab []byte
}

// liveExec is one executor: a goroutine with (for bolts) an input queue of
// delivery batches, bounded in tuples. The queue is part of the executor and
// travels with it across re-assignments — the per-executor queue handoff
// of smooth migration. The goroutine is an *incarnation*: CrashWorker
// kills it and the supervisor starts a fresh one with fresh user-code
// instances (state loss, as in a real Storm worker crash); the queue and
// the identity persist across incarnations.
type liveExec struct {
	eng   *Engine
	id    topology.ExecutorID
	dense int
	comp  *topology.Component
	app   *engine.App
	kind  execKind

	spout engine.Spout
	bolt  engine.Bolt
	ctx   *engine.Context
	rand  *rand.Rand

	// in is a bolt's input queue, bounded in tuples by queued (queue.go);
	// room is the one-slot wake channel a sender held at the bound waits
	// on. All three are nil or zero for spouts and ackers.
	in       chan inBatch
	queued   atomic.Int64
	room     chan struct{}
	ctl      chan []ctlMsg // acker input (nil otherwise)
	interval time.Duration
	terminal bool
	anchored bool // spout of an acker-enabled topology

	// Routing state touched only by the owning goroutine: the pre-resolved
	// output streams (with their per-edge round-robin counters, shared with
	// the simulated engine: topology.Router) and the scratch localTasks
	// reuses across emissions.
	router       *topology.Router
	localScratch []int
	scratch      byte

	// Wire-side scratch, owned by the executor goroutine like the routing
	// state above and reused because RemoteSink.Send only borrows a frame:
	// encScratch holds one tuple's encoded values on their way into a
	// frame, frames the spare data frames (one is in use per non-resident
	// target between two flushes), wireScratch the ctl or ack frame being
	// sent.
	encScratch  []byte
	frames      []*outFrame
	wireScratch []byte

	// ackers is the topology's acker task list, cached once at Start (the
	// executor set never changes after Submit, so the pointers are stable
	// for the engine's lifetime). ctlSink accumulates outgoing control
	// messages between flushes; both are owned by the executor goroutine.
	ackers  []*liveExec
	ctlSink ctlSink
	// ackAccs batches an acker's completion notifications per destination
	// spout within one drain (owned by the acker goroutine).
	ackAccs []ackAcc

	// batchTarget is the spout's adaptive cross-cycle accumulation target
	// (1..spoutBatchMax), owned by the spout goroutine.
	batchTarget int

	// Persistent emitters, reset at the start of each incarnation so their
	// slices are reused across cycles instead of reallocated.
	sem spoutEmitter
	bem boltEmitter

	// Spout-side reliability state, owned by the spout goroutine of the
	// current incarnation (the supervisor resets it between incarnations,
	// when no goroutine runs).
	pendingRoots map[tuple.ID]*livePendingRoot
	firstEmit    map[any]time.Time // msgID → first emit, survives replays
	outstanding  int
	wheel        *timeoutWheel
	nextSweep    time.Time
	failEpoch    int64 // the engine's failEpoch this spout last acted on

	// ackEvents is the acker→spout completion mailbox: appended under
	// ackMu by acker goroutines (never blocking), drained by the spout.
	// ackWake (one slot, anchored spouts only) tells a sleeping spout the
	// mailbox is no longer empty; see postAcks.
	ackMu     sync.Mutex
	ackEvents []ackEvent
	ackWake   chan struct{}

	// Supervision. dead is the router's lock-free drop check; die is
	// closed to kill the current incarnation (each goroutine holds its own
	// copy); gone is closed by the incarnation on exit. state, restarts,
	// crashedAt, drainStop and drainDone are guarded by eng.mu.
	dead      atomic.Bool
	die       chan struct{}
	gone      chan struct{}
	state     execState
	restarts  int
	crashedAt time.Time
	drainStop chan struct{}
	drainDone chan struct{}
	// pumpStop/pumpDone control the stranded-queue forwarder that runs
	// while the executor is stateRemote after a migration away from this
	// process (guarded by eng.mu, like the drainer pair).
	pumpStop chan struct{}
	pumpDone chan struct{}

	cpuNanos  atomic.Int64 // busy time since last monitor drain
	processed atomic.Int64 // lifetime tuples processed
	emitted   atomic.Int64 // lifetime emit calls

	// spans is the executor's tracing ring (nil when sampling is off);
	// curParent is the span identity the next emission inherits — the
	// input tuple's edge for bolts, the fresh root for anchored spout
	// emissions. Both touched only on the owning goroutine's sampled path.
	// spanSeq counts the spans pushed, for pushSpan's drain request.
	spans     *tracing.Ring
	curParent uint64
	spanSeq   atomic.Uint32

	// procLat records per-tuple process time (decode + Execute,
	// milliseconds) for bolts; atomic increments only, so the scraper can
	// read it while the executor's goroutine keeps writing. Nil for
	// spouts and ackers.
	procLat *metrics.AtomicHistogram
}

// run drives one incarnation. die and gone are this incarnation's own
// channels, passed in (not read from the struct) so a crash/restart never
// races the goroutine's view of them.
func (le *liveExec) run(die <-chan struct{}, gone chan<- struct{}) {
	defer le.eng.wg.Done()
	defer close(gone)
	switch le.kind {
	case spoutExec:
		le.runSpout(die)
	case boltExec:
		le.runBolt(die)
	default:
		le.runAcker(die)
	}
}

// haltPollInterval is how often a halted (or pending-capped) spout
// re-checks its gate.
const haltPollInterval = 500 * time.Microsecond

// spoutBatchMax bounds how many downstream transfers a spout accumulates
// across cycles before flushing. The adaptive target ramps toward it
// while consecutive cycles keep producing and collapses to 1 on the first
// idle cycle, so saturated spouts amortize channel sends across many
// cycles while trickle sources stay prompt.
const spoutBatchMax = 64

// boltBatchMax bounds a bolt's buffered transfers within one input batch;
// a high-fan-out Execute flushes mid-batch past it.
const boltBatchMax = 256

// frameBufCap is the capacity a fresh data-frame buffer starts with (a
// 64-tuple frame of short words fits); frameBufMax bounds what an
// executor keeps as a spare.
const (
	frameBufCap = 4 << 10
	frameBufMax = 1 << 20
)

// runSpout drives emit cycles. As in Storm's spout executor, NextTuple is
// called in a tight loop and the configured interval is slept only after
// an empty cycle (idle backoff); when the topology is saturated the
// bounded downstream queues provide the rate control. Anchored spouts
// additionally drain completion events, advance their timeout wheel, and
// gate on MaxPending before each cycle.
//
// Emissions accumulate across cycles (cross-cycle batching): a producing
// cycle doubles the accumulation target up to spoutBatchMax, an idle one
// resets it, and buffered work always flushes before the spout parks on a
// halt or MaxPending gate so Quiesce and migration drains never wait on
// tuples sitting in an emitter.
func (le *liveExec) runSpout(die <-chan struct{}) {
	eng := le.eng
	idleSleep := le.interval
	if le.anchored {
		now := time.Now()
		le.wheel = newTimeoutWheel(eng.AckTimeout(), now)
		le.nextSweep = now.Add(liveZombieRetention)
		le.failEpoch = eng.failEpoch.Load()
	}
	em := &le.sem
	*em = spoutEmitter{le: le} // drop any state a crashed incarnation left
	le.dropCtl()
	le.batchTarget = 1
	for {
		select {
		case <-eng.stopCh:
			return
		case <-die:
			return
		default:
		}
		if le.anchored {
			now := time.Now()
			le.drainAckEvents()
			if n := eng.failEpoch.Load(); n != le.failEpoch {
				le.failEpoch = n
				for _, p := range le.pendingRoots {
					le.failRoot(p)
				}
			}
			le.expireDueRoots(now)
			if now.After(le.nextSweep) {
				le.sweepSpoutZombies(now)
				le.nextSweep = now.Add(time.Minute)
			}
		}
		if eng.spoutsHalted.Load() {
			if !le.flushSpout(em, die) {
				return
			}
			if !le.sleep(haltPollInterval, nil, die) {
				return
			}
			continue
		}
		if le.anchored {
			// Buffered anchored roots count against the cap: they become
			// outstanding at the flush this gate forces.
			if mp := le.effMaxPending(); mp > 0 && le.outstanding+len(em.rootEmits) >= mp {
				if !le.flushSpout(em, die) {
					return
				}
				if !le.sleep(haltPollInterval, nil, die) {
					return
				}
				continue
			}
		}
		t0 := time.Now()
		rootsBefore := em.roots
		le.spout.NextTuple(em)
		le.cpuNanos.Add(int64(time.Since(t0)))
		cycleRoots := em.roots - rootsBefore
		if cycleRoots > 0 {
			le.emitted.Add(int64(cycleRoots))
			eng.rootsEmitted.Add(int64(cycleRoots))
			if le.batchTarget < spoutBatchMax {
				le.batchTarget *= 2
			}
		} else {
			le.batchTarget = 1
		}
		if em.buffered >= le.batchTarget || cycleRoots == 0 || len(em.acks) > 0 {
			if !le.flushSpout(em, die) {
				return
			}
		}
		if cycleRoots == 0 {
			if !le.sleep(idleSleep, le.ackWake, die) {
				return
			}
		}
	}
}

// flushSpout pushes everything the emitter accumulated — data deliveries,
// anchored root registrations with their init messages, and deferred
// immediate acks — downstream, in that order (inits only after the data
// is enqueued, so an acker can never complete a root whose tuples were
// not yet sent). It reports false when the engine is stopping or the
// incarnation was killed.
func (le *liveExec) flushSpout(em *spoutEmitter, die <-chan struct{}) bool {
	eng := le.eng
	for i := range em.deliveries {
		if !le.deliver(&em.deliveries[i], die) {
			return false
		}
	}
	em.deliveries = em.deliveries[:0]
	em.buffered = 0
	if le.anchored {
		if !le.flushAnchored(em, die) {
			return false
		}
	}
	em.rootEmits = em.rootEmits[:0]
	// Acknowledge immediately: for unanchored topologies this is every
	// reliable emission (no ack protocol runs); for anchored ones only
	// roots that reached no consumer (complete by definition).
	if len(em.acks) > 0 {
		t1 := time.Now()
		for _, id := range em.acks {
			if le.anchored {
				eng.acked.Add(1)
				eng.rootLat.Add(0)
			}
			le.spout.Ack(id)
		}
		le.cpuNanos.Add(int64(time.Since(t1)))
		em.acks = em.acks[:0]
	}
	em.roots = 0
	return true
}

// sleep waits d — or, given a wake channel, until a token arrives on it
// — or until the engine stops or the incarnation is killed; it reports
// false when the executor should exit. The idle backoff passes ackWake,
// which keeps the spout's cadence its own: a sub-millisecond runtime
// timer fires on time only while something else keeps the process's
// scheduler awake (an idle Go process polls the network in whole
// milliseconds), so a spout that found its completions by timer alone
// took them up — and emitted what had come due — up to a millisecond late
// in a quiet worker and on time in a busy one. The halt and MaxPending
// gates pass nil and keep their fixed poll, which is what paces a spout
// held at its cap.
func (le *liveExec) sleep(d time.Duration, wake, die <-chan struct{}) bool {
	select {
	case <-le.eng.stopCh:
		return false
	case <-die:
		return false
	case <-wake:
		return true
	case <-time.After(d):
		return true
	}
}

func (le *liveExec) runBolt(die <-chan struct{}) {
	eng := le.eng
	em := &le.bem
	*em = boltEmitter{le: le} // drop any state a crashed incarnation left
	le.dropCtl()
	for {
		select {
		case <-eng.stopCh:
			return
		case <-die:
			return
		case batch := <-le.in:
			le.credit(len(batch.msgs))
			pooledEnc := batch.slab == nil
			for i := range batch.msgs {
				select {
				case <-die:
					// Crashed mid-batch: the unprocessed tail AND everything
					// buffered since the last flush — downstream emissions
					// and their XOR acks alike — are dropped, so no root can
					// complete while its subtree was never delivered; the
					// spout wheel replays all of it.
					le.abortBolt(em)
					le.dropRemaining(batch, i)
					return
				default:
				}
				le.process(batch.msgs[i], pooledEnc, em)
				if em.buffered >= boltBatchMax {
					if !le.flushBolt(em, die) {
						le.dropRemaining(batch, i+1)
						return
					}
				}
			}
			ok := le.flushBolt(em, die)
			eng.releaseInput(batch, len(batch.msgs))
			if !ok {
				return
			}
		}
	}
}

// dropRemaining accounts for a batch tail abandoned by a dying bolt and
// returns the batch (with its slab, or the tail's encode buffers) to the
// pools.
func (le *liveExec) dropRemaining(batch inBatch, from int) {
	if n := int64(len(batch.msgs) - from); n > 0 {
		le.eng.pending.Add(-n)
		le.eng.dropped.Add(n)
	}
	le.eng.releaseInput(batch, from)
}

// flushBolt delivers the emitter's buffered downstream batches, then the
// accumulated XOR acks, then releases the pending credits of the inputs
// processed since the last flush — in that order, so Quiesce cannot
// observe an empty system with work still materializing and an acker can
// never complete a root whose emissions were not yet enqueued. On abort
// (stop/die) the undelivered batches are recycled and the pending acks
// dropped: acking an input whose emissions never shipped would falsely
// complete its root.
func (le *liveExec) flushBolt(em *boltEmitter, die <-chan struct{}) bool {
	eng := le.eng
	ok := true
	for i := range em.deliveries {
		if ok {
			ok = le.deliver(&em.deliveries[i], die)
		} else {
			le.discard(&em.deliveries[i])
		}
	}
	em.deliveries = em.deliveries[:0]
	em.buffered = 0
	if ok {
		ok = le.flushCtl(die)
	} else {
		le.dropCtl()
	}
	eng.pending.Add(-int64(em.done))
	em.done = 0
	return ok
}

// abortBolt discards everything a dying bolt buffered since its last
// flush: un-enqueued downstream batches, their XOR acks, and the pending
// credits of the already-processed inputs (their roots replay via the
// spout wheel).
func (le *liveExec) abortBolt(em *boltEmitter) {
	eng := le.eng
	for i := range em.deliveries {
		le.discard(&em.deliveries[i])
	}
	em.deliveries = em.deliveries[:0]
	em.buffered = 0
	le.dropCtl()
	eng.pending.Add(-int64(em.done))
	em.done = 0
}

// process runs the bolt on one input tuple, buffering its emissions and
// its XOR ack (input edge ^ new edges) in the persistent emitter; the
// batch-level flush ships both and releases the pending credits. Remote
// inputs are decoded here, inside the timed window — and, when the
// message carries a pooled encode buffer of its own (pooledEnc; a message
// off the wire aliases its batch's slab instead), the buffer is recycled
// the moment decode returns, since decodeValues copies every payload out.
func (le *liveExec) process(m liveMsg, pooledEnc bool, em *boltEmitter) {
	eng := le.eng
	t0 := time.Now()
	if m.enc != nil {
		vals, err := decodeValues(m.enc, m.extras)
		if pooledEnc {
			eng.encPool.put(m.enc)
		}
		if err != nil {
			// Corrupt payload: drop the tuple (cannot happen with the
			// symmetric codec; defensive).
			le.cpuNanos.Add(int64(time.Since(t0)))
			eng.pending.Add(-1)
			return
		}
		m.tup.Values = vals
	}
	em.bornAt = m.bornAt
	em.root = m.tup.Root
	em.xorAcc = 0
	le.curParent = uint64(m.tup.Edge)
	le.bolt.Execute(m.tup, em)
	busy := time.Since(t0)
	if le.spans != nil && eng.sampledRoot(m.tup.Root) {
		le.recordExecute(&m, t0, busy)
	}
	le.cpuNanos.Add(int64(busy))
	le.procLat.Add(float64(busy) / 1e6)
	le.processed.Add(1)
	eng.processed.Add(1)
	if le.terminal {
		eng.sinkProcessed.Add(1)
		if !m.bornAt.IsZero() {
			eng.latency.Add(time.Since(m.bornAt).Seconds() * 1e3)
		}
	}
	if m.tup.Root != 0 && len(le.ackers) > 0 {
		le.addAck(m.tup.Root, m.tup.Edge^em.xorAcc)
	}
	em.done++
}

// newEdgeID draws a non-zero random tuple ID on the owning goroutine.
func (le *liveExec) newEdgeID() tuple.ID {
	for {
		if id := tuple.ID(le.rand.Uint64()); id != 0 {
			return id
		}
	}
}

// ---- emitters ----

type spoutEmitter struct {
	le         *liveExec
	deliveries []delivery
	acks       []any
	rootEmits  []liveRootEmit
	roots      int // roots emitted since the last flush
	buffered   int // transfers buffered since the last flush
}

var _ engine.SpoutEmitter = (*spoutEmitter)(nil)

func (e *spoutEmitter) Emit(stream string, vals tuple.Values) {
	n, _ := e.le.route(&e.deliveries, stream, vals, time.Now(), 0)
	if n >= 0 {
		e.roots++
		e.buffered += n
	}
}

func (e *spoutEmitter) EmitWithID(stream string, vals tuple.Values, msgID any) {
	if !e.le.anchored {
		// Unanchored topology: behaves like Emit, acked after the flush.
		n, _ := e.le.route(&e.deliveries, stream, vals, time.Now(), 0)
		if n >= 0 {
			e.roots++
			e.buffered += n
			e.acks = append(e.acks, msgID)
		}
		return
	}
	root := e.le.newEdgeID()
	e.le.curParent = uint64(root) // the root span parents the first hop
	n, xorAcc := e.le.route(&e.deliveries, stream, vals, time.Now(), root)
	if n < 0 {
		return // undeclared stream
	}
	e.roots++
	e.buffered += n
	if n == 0 {
		// No consumers: the tree is complete the moment it is emitted.
		e.acks = append(e.acks, msgID)
		return
	}
	e.rootEmits = append(e.rootEmits, liveRootEmit{root: root, initXor: xorAcc, msgID: msgID})
}

func (e *spoutEmitter) EmitDirect(consumer string, taskIndex int, stream string, vals tuple.Values) {
	if _, ok := e.le.routeDirect(&e.deliveries, consumer, taskIndex, stream, vals, time.Now(), 0); ok {
		e.roots++
		e.buffered++
	}
}

type boltEmitter struct {
	le         *liveExec
	bornAt     time.Time
	root       tuple.ID // anchor inherited from the input tuple (0 = unanchored)
	xorAcc     tuple.ID // XOR of the edge IDs this Execute emitted
	deliveries []delivery
	buffered   int // transfers buffered since the last flush
	done       int // inputs processed since the last flush (pending credits)
}

var _ engine.Emitter = (*boltEmitter)(nil)

func (e *boltEmitter) Emit(stream string, vals tuple.Values) {
	n, xor := e.le.route(&e.deliveries, stream, vals, e.bornAt, e.root)
	e.xorAcc ^= xor
	if n > 0 {
		e.buffered += n
		e.le.emitted.Add(int64(n))
	}
}

func (e *boltEmitter) EmitDirect(consumer string, taskIndex int, stream string, vals tuple.Values) {
	eid, ok := e.le.routeDirect(&e.deliveries, consumer, taskIndex, stream, vals, e.bornAt, e.root)
	e.xorAcc ^= eid
	if ok {
		e.buffered++
		e.le.emitted.Add(1)
	}
}
