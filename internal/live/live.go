// Package live is the wall-clock execution backend: it runs a
// topology.Topology on real goroutines — one goroutine per executor with an
// input queue bounded in tuples — grouped into worker processes that map to
// cluster.SlotIDs on emulated nodes, all inside one OS process.
//
// The point of the package is that the *unchanged* scheduling brain
// (internal/scheduler algorithms, internal/core's Algorithm 1) schedules
// real concurrent work: a live Monitor samples per-executor CPU time and
// tuple counts over real wall-clock windows into the same
// internal/loaddb EWMA database the simulated monitors use, internal/core's
// schedule generator runs on a wall clock (WallClock) with the engine as
// its target, and Engine.Apply migrates executors between
// worker groups with the paper's smoothing (spout halt + drain, §IV-D).
//
// Node boundaries are emulated by cost, not by address spaces: a tuple
// moving between two executors of the same worker (slot) is passed by
// reference; between different slots it is serialized and deserialized
// (real CPU work, as between Storm worker JVMs); between different nodes
// it additionally pays per-byte copy work standing in for the kernel/NIC
// path. Traffic-aware placement therefore measurably raises real
// tuples/s: every co-located chatty pair is serialization work removed.
//
// Topologies built with SetAckers(n > 0) run anchored, wall-clock
// at-least-once: EmitWithID stamps a root ID, every hop carries an XOR
// edge ID to the topology's acker executors (reusing internal/acker's
// Tracker), completions call the spout's Ack, and a per-spout timeout
// wheel fails roots whose acks stop arriving — reliable spouts then
// replay, and the engine keeps the first-emit time across replays so
// completion latency matches the simulation's metric. MaxPending bounds a
// spout's outstanding roots so replay storms backpressure instead of
// overflowing queues. Topologies without ackers keep the old unanchored
// behaviour: Ack immediately after the emit cycle flushes, no replay.
//
// The engine also injects and survives failures: CrashWorker/FailNode
// kill executor goroutines for real and drop their queued batches, a
// Supervisor restarts crashed workers with exponential backoff, and the
// Monitor stops reporting nodes that are down so Algorithm 1 reschedules
// around them — in-flight roots lost in the crash time out and replay
// through the new placement.
package live

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tstorm/internal/acker"
	"tstorm/internal/cluster"
	"tstorm/internal/engine"
	"tstorm/internal/metrics"
	"tstorm/internal/sim"
	"tstorm/internal/topology"
	"tstorm/internal/trace"
	"tstorm/internal/tracing"
	"tstorm/internal/tuple"
)

// Config holds the live engine's knobs. Durations shrink freely for tests.
type Config struct {
	// Seed drives the per-executor random sources.
	Seed uint64
	// SpoutHaltDelay is how long spouts stay halted after a re-assignment
	// is applied, so queues settle before new roots flow (paper: 10 s;
	// default here 250 ms — live migration needs no worker restarts).
	SpoutHaltDelay time.Duration
	// DrainTimeout bounds how long Apply waits for in-flight tuples to
	// drain before moving executors anyway (their queues move with them).
	DrainTimeout time.Duration
	// InterNodeCopies is how many extra passes over the serialized bytes
	// an inter-node hop costs, standing in for kernel/NIC copies and
	// framing (default 4). Same-node inter-slot hops pay serialization
	// only.
	InterNodeCopies int
	// WireCost is the fixed busy-CPU time an inter-node hop additionally
	// charges the sending executor per tuple — the per-message kernel/
	// network-stack path (syscall, TCP/IP, interrupts) that co-location
	// eliminates (default 3µs; negative disables it). It burns real time
	// on the sender's goroutine, so it reduces that executor's serial
	// capacity exactly as the real cost would.
	WireCost time.Duration
	// RefMHz expresses measured CPU seconds as the load database's MHz
	// unit: load = cpuSeconds/window × RefMHz (default 2000, the paper's
	// core speed).
	RefMHz float64
	// AckTimeout is how long an anchored root may stay un-acked before the
	// spout's timeout wheel fails it (default acker.DefaultTimeout, Storm's
	// 30 s). Ignored by topologies without ackers.
	AckTimeout time.Duration
	// MaxPending caps each spout's outstanding (un-acked) roots when the
	// spout's App does not set its own App.MaxPending entry; 0 = unlimited.
	// Only anchored spouts are gated.
	MaxPending int
	// Trace, when non-nil, receives wall-clock runtime events (apply,
	// spout halt/resume, per-executor migration, drain outcomes); the
	// monitor additionally reports sampling rounds and overload
	// detections through it. Nil disables tracing.
	Trace *trace.Recorder
	// TraceSampling samples 1-in-rate anchored tuple trees for span-level
	// tracing (tracing.go); must be a power of two, 0 disables. The
	// check is one AND against the root ID, so unsampled tuples stay on
	// the zero-alloc emit path.
	TraceSampling int
	// LocalSlots, when non-empty, restricts execution to executors placed
	// on the named slots: everything else becomes a routing proxy whose
	// transfers leave through Remote as encoded frames. This is how a
	// distributed worker process runs its share of a topology with the
	// full engine — all processes submit identical topologies in identical
	// order, so dense executor indexes agree fleet-wide. Empty (the
	// default) means every slot is local: the classic in-process engine.
	LocalSlots []cluster.SlotID
	// Remote carries frames to the worker processes owning non-local
	// slots. Required when LocalSlots is set.
	Remote RemoteSink
}

// DefaultConfig returns the default live configuration.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		SpoutHaltDelay:  250 * time.Millisecond,
		DrainTimeout:    5 * time.Second,
		InterNodeCopies: 4,
		WireCost:        3 * time.Microsecond,
		RefMHz:          2000,
		AckTimeout:      acker.DefaultTimeout,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.SpoutHaltDelay <= 0 {
		c.SpoutHaltDelay = d.SpoutHaltDelay
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = d.DrainTimeout
	}
	if c.InterNodeCopies < 0 {
		c.InterNodeCopies = d.InterNodeCopies
	}
	if c.WireCost == 0 {
		c.WireCost = d.WireCost
	} else if c.WireCost < 0 {
		c.WireCost = 0
	}
	if c.RefMHz <= 0 {
		c.RefMHz = d.RefMHz
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = d.AckTimeout
	}
	if c.MaxPending < 0 {
		c.MaxPending = 0
	}
}

// Engine executes submitted topologies on goroutines, wall-clock.
type Engine struct {
	cfg Config
	cl  *cluster.Cluster

	mu     sync.RWMutex // guards apps, assign, placement, groups
	apps   map[string]*engine.App
	assign map[string]*cluster.Assignment
	execs  map[topology.ExecutorID]*liveExec
	// placement mirrors assign flattened across topologies — the
	// authoritative copy Submit/Apply mutate under mu. The router never
	// reads it: emitters resolve targets from the routes snapshot below.
	placement map[topology.ExecutorID]cluster.SlotID
	// groups lists the executors resident in each active slot (worker
	// process) — the locality set of LocalOrShuffleGrouping. Like
	// placement, it is bookkeeping; routing reads the snapshot's copy.
	groups map[cluster.SlotID][]*liveExec
	// downNodes marks nodes taken out by FailNode (guarded by mu). Dead
	// executors placed there are not restarted in place; the monitor stops
	// reporting the node and the generator fences it off Algorithm 1's
	// candidate set until RecoverNode.
	downNodes map[cluster.NodeID]bool
	// localSlots restricts execution to the named slots (nil = all local);
	// see Config.LocalSlots.
	localSlots map[cluster.SlotID]bool

	denseRev []topology.ExecutorID

	// routes is the published copy-on-write routing snapshot: rebuilt by
	// Submit/Apply via rebuildRoutesLocked, read lock-free on every
	// emission. See routes.go.
	routes atomic.Pointer[routeTable]

	started atomic.Bool
	stopped atomic.Bool
	stopCh  chan struct{}
	wg      sync.WaitGroup

	// epoch is the wall-clock instant Start ran; the acker Trackers keep
	// sim.Time internally, so wall instants convert as now.Sub(epoch).
	epoch time.Time

	// ackTimeout (nanoseconds) and maxPending hold the effective reliability
	// knobs. They start from Config but live in atomics so the facade's
	// options can adjust them even around Start without racing readers.
	ackTimeout atomic.Int64
	maxPending atomic.Int64

	// Spout halting (§IV-D smoothing). haltGen invalidates stale resume
	// timers when re-assignments overlap; resumeTimer retains the latest
	// pending resume so Stop can cancel it instead of leaking it.
	spoutsHalted atomic.Bool
	haltGen      atomic.Int64
	timerMu      sync.Mutex
	resumeTimer  *time.Timer

	// failEpoch counts FailPending calls; each anchored spout fails its
	// outstanding roots when it sees the count move.
	failEpoch atomic.Int64

	// applyMu serializes re-assignments.
	applyMu sync.Mutex

	// pending counts tuples enqueued but not yet fully processed
	// (including their downstream emissions); 0 with halted spouts means
	// the topology is quiescent.
	pending atomic.Int64

	traffic *metrics.SyncTrafficMatrix
	latency *metrics.SyncHistogram

	// edges holds one lifetime tuple counter per (from, to, boundary
	// class) triple. Dense indexes are fixed once Start allocates the
	// matrix (Submit must precede Start), so deliver bumps a counter with
	// one atomic add and no lock — the per-edge metrics the exposition
	// endpoint serves. Published atomically so scrapers may read before
	// Start.
	edges atomic.Pointer[edgeMatrix]

	// Lifetime counters.
	rootsEmitted  atomic.Int64 // spout emit cycles' root tuples
	tuplesSent    atomic.Int64 // executor-to-executor transfers
	interNodeSent atomic.Int64 // transfers crossing an emulated node boundary
	interProcSent atomic.Int64 // transfers crossing slots on one node
	processed     atomic.Int64 // tuples processed by bolts
	sinkProcessed atomic.Int64 // tuples processed by terminal bolts
	migrations    atomic.Int64 // executors moved by Apply
	applies       atomic.Int64 // re-assignments applied

	// Reliability counters (anchored topologies only).
	acked          atomic.Int64 // roots fully processed and acked to their spout
	lateAcked      atomic.Int64 // of those, completions that arrived after a timeout
	failedRoots    atomic.Int64 // roots failed by a spout's timeout wheel or FailPending
	replayed       atomic.Int64 // re-emits of an already-seen spout msgID
	pendingRoots   atomic.Int64 // outstanding (un-acked, un-failed) roots right now
	dropped        atomic.Int64 // tuples dropped at or drained from dead executors
	workerCrashes  atomic.Int64 // executor goroutines killed by CrashWorker/FailNode
	workerRestarts atomic.Int64 // supervisor restarts

	// rootLat is the root completion-latency histogram (first emit → ack,
	// milliseconds) — the live analogue of the sim's completion metric.
	// First-emit time survives replays, so a root that timed out, replayed
	// and then completed reports its full latency, as in Fig. 3.
	rootLat *metrics.SyncHistogram

	// ctlCombined counts XOR acks folded into an already-buffered ack for
	// the same root before reaching a channel (sender-side combining).
	ctlCombined atomic.Int64

	// Tuple tracing (tracing.go). traceRate/traceMask are set before Start
	// and immutable after; collector assembles sampled trees in-process
	// (nil for distributed workers, which export spans via DrainSpans);
	// tracedRoots counts sampled root registrations, replays included;
	// spanReady is how an executor whose ring is filling wakes the rings'
	// drainer ahead of its period (SpansReady).
	traceRate   int
	traceMask   uint64
	collector   *tracing.Collector
	tracedRoots atomic.Int64
	spanReady   chan struct{}

	// Batch pools for the zero-alloc emission path (pool.go): delivery
	// batches, acker control batches, completion-event batches, codec
	// encode buffers, and the slabs Ingest copies wire frames into.
	msgPool  batchPool[liveMsg]
	ctlPool  batchPool[ctlMsg]
	ackPool  batchPool[ackEvent]
	encPool  batchPool[byte]
	slabPool batchPool[byte]
}

// NewEngine returns a live engine over the given emulated cluster.
func NewEngine(cfg Config, cl *cluster.Cluster) (*Engine, error) {
	if cl == nil {
		return nil, fmt.Errorf("live: nil cluster")
	}
	cfg.fillDefaults()
	eng := &Engine{
		cfg:       cfg,
		cl:        cl,
		apps:      make(map[string]*engine.App),
		assign:    make(map[string]*cluster.Assignment),
		execs:     make(map[topology.ExecutorID]*liveExec),
		placement: make(map[topology.ExecutorID]cluster.SlotID),
		groups:    make(map[cluster.SlotID][]*liveExec),
		downNodes: make(map[cluster.NodeID]bool),
		stopCh:    make(chan struct{}),
		spanReady: make(chan struct{}, 1),
		traffic:   metrics.NewSyncTrafficMatrix(),
		latency:   metrics.NewSyncLatencyHistogram(),
		rootLat:   metrics.NewSyncLatencyHistogram(),
	}
	eng.encPool.newCap = encBufCap
	eng.slabPool.newCap, eng.slabPool.maxCap = frameBufCap, frameBufMax
	if len(cfg.LocalSlots) > 0 {
		if cfg.Remote == nil {
			return nil, fmt.Errorf("live: LocalSlots requires a Remote sink")
		}
		eng.localSlots = make(map[cluster.SlotID]bool, len(cfg.LocalSlots))
		for _, s := range cfg.LocalSlots {
			if _, ok := cl.Node(s.Node); !ok {
				return nil, fmt.Errorf("live: local slot %s on unknown node", s)
			}
			eng.localSlots[s] = true
		}
	}
	eng.ackTimeout.Store(int64(cfg.AckTimeout))
	eng.maxPending.Store(int64(cfg.MaxPending))
	eng.routes.Store(emptyRouteTable())
	if cfg.TraceSampling != 0 {
		// The mask is read lock-free on the emit path and the span rings
		// are sized at Start, so the rate is fixed at construction.
		mask, err := tracing.Mask(cfg.TraceSampling)
		if err != nil {
			return nil, err
		}
		eng.traceRate, eng.traceMask = cfg.TraceSampling, mask
		if eng.localSlots == nil {
			// In-process engine: own the collector. A distributed worker
			// (LocalSlots set) exports spans instead; the driver collects.
			eng.collector = tracing.NewCollector(tracing.Config{})
		}
	}
	return eng, nil
}

// isLocalSlot reports whether executors on the slot execute in this
// process (always true for the classic in-process engine).
func (eng *Engine) isLocalSlot(s cluster.SlotID) bool {
	return eng.localSlots == nil || eng.localSlots[s]
}

// AckTimeout returns the effective root timeout.
func (eng *Engine) AckTimeout() time.Duration {
	return time.Duration(eng.ackTimeout.Load())
}

// SetAckTimeout adjusts the root timeout. Roots already registered with
// the old deadline keep it; new roots use the new value.
func (eng *Engine) SetAckTimeout(d time.Duration) {
	if d > 0 {
		eng.ackTimeout.Store(int64(d))
	}
}

// MaxPending returns the engine-level default spout pending cap.
func (eng *Engine) MaxPending() int { return int(eng.maxPending.Load()) }

// SetMaxPending adjusts the engine-level default spout pending cap
// (per-spout App.MaxPending entries still win). 0 = unlimited.
func (eng *Engine) SetMaxPending(n int) {
	if n >= 0 {
		eng.maxPending.Store(int64(n))
	}
}

// Config returns the engine's configuration.
func (eng *Engine) Config() Config { return eng.cfg }

// Cluster returns the emulated cluster.
func (eng *Engine) Cluster() *cluster.Cluster { return eng.cl }

// Submit registers an app with its initial assignment. All executors of
// the topology must be placed on existing slots. Submit must precede
// Start.
func (eng *Engine) Submit(app *engine.App, initial *cluster.Assignment) error {
	if eng.started.Load() {
		return fmt.Errorf("live: submit after start")
	}
	if err := app.Validate(); err != nil {
		return err
	}
	if initial == nil {
		return fmt.Errorf("live: nil initial assignment")
	}
	name := app.Topology.Name()
	eng.mu.Lock()
	defer eng.mu.Unlock()
	if _, dup := eng.apps[name]; dup {
		return fmt.Errorf("live: topology %q already submitted", name)
	}
	execs := app.Topology.Executors()
	for _, e := range execs {
		s, ok := initial.Slot(e)
		if !ok {
			return fmt.Errorf("live: executor %v has no slot in initial assignment", e)
		}
		if _, ok := eng.cl.Node(s.Node); !ok {
			return fmt.Errorf("live: executor %v assigned to unknown node %q", e, s.Node)
		}
	}
	eng.apps[name] = app
	eng.assign[name] = initial.Clone()
	for _, e := range execs {
		le := eng.newExec(app, e)
		eng.execs[e] = le
		s := initial.Executors[e]
		eng.placement[e] = s
		eng.groups[s] = append(eng.groups[s], le)
		if !eng.isLocalSlot(s) {
			le.state = stateRemote
		}
	}
	eng.rebuildRoutesLocked()
	return nil
}

// newExec builds one executor (goroutine not yet started). Caller holds
// eng.mu.
func (eng *Engine) newExec(app *engine.App, id topology.ExecutorID) *liveExec {
	comp, _ := app.Topology.Component(id.Component)
	le := &liveExec{
		eng:    eng,
		id:     id,
		dense:  len(eng.denseRev),
		comp:   comp,
		app:    app,
		router: topology.NewRouter(app.Topology, comp, id.Index),
		rand: rand.New(rand.NewPCG(eng.cfg.Seed,
			uint64(len(eng.denseRev))+1)),
	}
	eng.denseRev = append(eng.denseRev, id)
	le.die = make(chan struct{})
	le.gone = make(chan struct{})
	switch {
	case comp.Kind == topology.SpoutKind:
		le.kind = spoutExec
		le.spout = app.Spouts[id.Component]()
		le.interval = spoutIntervalFor(app, id.Component)
		if app.Topology.Ackers() > 0 {
			le.anchored = true
			le.pendingRoots = make(map[tuple.ID]*livePendingRoot)
			le.firstEmit = make(map[any]time.Time)
			le.ackWake = make(chan struct{}, 1)
		}
	case id.Component == topology.AckerComponent:
		le.kind = ackerExec
		le.ctl = make(chan []ctlMsg, ctlQueueCap)
	default:
		le.kind = boltExec
		le.bolt = app.Bolts[id.Component]()
		// Every batch holds at least one tuple and is admitted only while
		// fewer than queueBound are charged, so the channel never fills.
		le.in = make(chan inBatch, queueBound)
		le.room = make(chan struct{}, 1)
		le.terminal = isTerminal(app.Topology, comp)
		le.procLat = metrics.NewProcLatencyHistogram()
	}
	return le
}

func spoutIntervalFor(app *engine.App, component string) time.Duration {
	if d, ok := app.SpoutInterval[component]; ok && d > 0 {
		return d
	}
	return engine.DefaultSpoutInterval
}

// isTerminal reports whether a component is a sink: it declares no output
// streams, or no bolt subscribes to any of them. Terminal bolts record
// end-to-end latency.
func isTerminal(top *topology.Topology, c *topology.Component) bool {
	for stream := range c.Outputs {
		if len(top.Consumers(c.Name, stream)) > 0 {
			return false
		}
	}
	return true
}

// Start launches every executor goroutine. Spouts begin emitting
// immediately.
func (eng *Engine) Start() error {
	if !eng.started.CompareAndSwap(false, true) {
		return fmt.Errorf("live: already started")
	}
	eng.mu.RLock()
	defer eng.mu.RUnlock()
	if len(eng.apps) == 0 {
		eng.started.Store(false)
		return fmt.Errorf("live: nothing submitted")
	}
	rt := eng.routes.Load()
	for _, le := range eng.execs {
		// Cache the topology's acker task list: the executor set never
		// changes after Submit, so these pointers are stable for the
		// engine's lifetime and the ack path never walks byComp again.
		le.ackers = rt.byComp[compKey{topo: le.id.Topology, comp: topology.AckerComponent}]
		le.ctx = &engine.Context{
			Topology:    le.id.Topology,
			Index:       le.id.Index,
			Parallelism: le.comp.Parallelism,
		}
		if le.state == stateRemote {
			// Routing proxy: context built (a later migration may promote it
			// to local), user code neither instantiated nor opened here.
			continue
		}
		switch le.kind {
		case spoutExec:
			le.spout.Open(le.ctx)
		case boltExec:
			le.bolt.Prepare(le.ctx)
		}
	}
	n := len(eng.denseRev)
	eng.edges.Store(&edgeMatrix{n: n, counts: make([]edgeCounter, n*n)})
	eng.epoch = time.Now()
	if eng.traceRate != 0 {
		// Every spout and bolt gets a ring — including remote proxies,
		// which a later migration may promote to local execution.
		for _, le := range eng.execs {
			if le.kind != ackerExec {
				le.spans = tracing.NewRing(spanRingCap)
			}
		}
		if eng.collector != nil {
			eng.wg.Add(1)
			go eng.collectSpans()
		}
	}
	for _, le := range eng.execs {
		if le.state == stateRemote {
			continue
		}
		eng.wg.Add(1)
		go le.run(le.die, le.gone)
	}
	return nil
}

// Pending reports how many tuples are queued or being processed in this
// process right now — the distributed driver polls every worker's value
// to quiesce the fleet before a migration.
func (eng *Engine) Pending() int64 { return eng.pending.Load() }

// Done is closed when the engine stops; the generator and monitor loops
// (and the dist layer's pollers) select on it.
func (eng *Engine) Done() <-chan struct{} { return eng.stopCh }

// simNow converts a wall instant to the engine's sim.Time axis (the unit
// the acker Trackers keep internally).
func (eng *Engine) simNow(t time.Time) sim.Time {
	return sim.Time(t.Sub(eng.epoch))
}

// edgeMatrix is the engine's dense per-edge counter matrix, indexed
// from×n+to.
type edgeMatrix struct {
	n      int
	counts []edgeCounter
}

// edgeCounter is one directed executor pair's lifetime tuple counts, split
// by the boundary class each transfer crossed.
type edgeCounter struct {
	byHop [3]atomic.Int64 // indexed by hopKind
}

// Trace returns the engine's trace recorder (nil when tracing is off).
func (eng *Engine) Trace() *trace.Recorder { return eng.cfg.Trace }

// emit records a wall-clock trace event if a recorder is attached.
func (eng *Engine) emit(kind trace.Kind, topo, where, detail string) {
	if eng.cfg.Trace == nil {
		return
	}
	eng.cfg.Trace.Emit(trace.WallEvent(kind, topo, where, detail))
}

// Stop halts all executor goroutines, waits for them to exit and empties
// their input queues. It is idempotent.
func (eng *Engine) Stop() {
	if !eng.stopped.CompareAndSwap(false, true) {
		return
	}
	close(eng.stopCh)
	eng.wg.Wait()
	// No consumer is left: what is still queued is never processed.
	for _, le := range eng.routes.Load().byDense {
		le.emptyQueue()
	}
	// Cancel any pending spout-resume timer so short-lived engines do not
	// leak its goroutine past Stop.
	eng.timerMu.Lock()
	if eng.resumeTimer != nil {
		eng.resumeTimer.Stop()
		eng.resumeTimer = nil
	}
	eng.timerMu.Unlock()
}

// FailPending makes every anchored spout fail all its outstanding roots
// at its next turn instead of at their ack-timeout deadlines, so their
// spouts replay them at once. The distributed driver calls it on every
// worker once a dead worker's replacement is routable again: the roots in
// flight through the dead process are lost, and the spouts' pending caps
// are full of them. A root that was not lost completes late and its
// replay is a duplicate, which at-least-once delivery allows.
func (eng *Engine) FailPending() { eng.failEpoch.Add(1) }

// HaltSpouts stops spouts from emitting new roots until ResumeSpouts.
func (eng *Engine) HaltSpouts() {
	eng.haltGen.Add(1)
	eng.spoutsHalted.Store(true)
	eng.emit(trace.SpoutsHalted, "", "", "no new roots until resume")
}

// ResumeSpouts lets spouts emit again.
func (eng *Engine) ResumeSpouts() {
	eng.haltGen.Add(1)
	eng.spoutsHalted.Store(false)
	eng.emit(trace.SpoutsResumed, "", "", "")
}

// resumeSpoutsAfter re-enables spouts after d unless another halt happened
// in between. The timer is retained (replacing, and stopping, any earlier
// pending resume — made stale by the haltGen bump anyway) so Engine.Stop
// can cancel it.
func (eng *Engine) resumeSpoutsAfter(d time.Duration) {
	gen := eng.haltGen.Load()
	t := time.AfterFunc(d, func() {
		if eng.haltGen.Load() == gen {
			eng.spoutsHalted.Store(false)
			eng.emit(trace.SpoutsResumed, "", "",
				fmt.Sprintf("after %v halt delay", d))
		}
	})
	eng.timerMu.Lock()
	if eng.resumeTimer != nil {
		eng.resumeTimer.Stop()
	}
	eng.resumeTimer = t
	eng.timerMu.Unlock()
}

// Quiesce waits until no tuple is queued or being processed (spouts
// should be halted first, or the topology may never drain). It returns
// true when fully drained, false on timeout.
func (eng *Engine) Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if eng.pending.Load() == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Topologies lists submitted topology names, sorted.
func (eng *Engine) Topologies() []string {
	eng.mu.RLock()
	defer eng.mu.RUnlock()
	out := make([]string, 0, len(eng.apps))
	for n := range eng.apps {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// App returns a submitted app by topology name.
func (eng *Engine) App(name string) (*engine.App, bool) {
	eng.mu.RLock()
	defer eng.mu.RUnlock()
	a, ok := eng.apps[name]
	return a, ok
}

// CurrentAssignment returns a copy of the topology's live assignment.
func (eng *Engine) CurrentAssignment(name string) (*cluster.Assignment, bool) {
	eng.mu.RLock()
	defer eng.mu.RUnlock()
	a, ok := eng.assign[name]
	if !ok {
		return nil, false
	}
	return a.Clone(), true
}
