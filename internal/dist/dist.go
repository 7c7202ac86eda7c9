package dist

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/coord"
	"tstorm/internal/engine"
	"tstorm/internal/live"
	"tstorm/internal/logx"
	"tstorm/internal/trace"
	"tstorm/internal/tracing"
)

// Config holds the distributed driver's knobs. The cluster is always
// uniform (the paper's testbed shape): Nodes machines × SlotsPerNode
// worker processes, all on loopback.
type Config struct {
	// Nodes, Cores, CoreMHz, SlotsPerNode shape the emulated cluster the
	// scheduler reasons about; one OS process backs each slot.
	Nodes        int
	Cores        int
	CoreMHz      float64
	SlotsPerNode int

	// Worker-engine knobs, shipped to every worker verbatim.
	Seed          uint64
	QueueCapacity int
	AckTimeout    time.Duration
	MaxPending    int

	// MaxHops bounds mid-migration frame forwarding (default 3).
	MaxHops int
	// HeartbeatPeriod is the worker status-push cadence (default 100 ms).
	HeartbeatPeriod time.Duration
	// MonitorPeriod is each worker's load-monitor period; 0 disables
	// worker monitors (tests drive Sample-free flows; the facade sets it).
	MonitorPeriod time.Duration

	// ReadyTimeout bounds fleet bring-up: every worker registered and
	// configured (default 30 s — slow CI boxes fork+exec slowly).
	ReadyTimeout time.Duration
	// DrainTimeout bounds §IV-D quiescence polling before a migration
	// proceeds anyway (default 5 s).
	DrainTimeout time.Duration
	// ApplyTimeout bounds the wait for the worker fleet to confirm an
	// applied assignment (default 10 s).
	ApplyTimeout time.Duration
	// SpoutHaltDelay is the §IV-D smoothing pause after migration before
	// spouts resume (default 250 ms, as in the live engine).
	SpoutHaltDelay time.Duration

	// Process-respawn backoff schedule (defaults 100 ms base, 10 s cap).
	BackoffBase time.Duration
	BackoffCap  time.Duration

	// Trace receives driver-side runtime events (worker lifecycle,
	// publishes, applies). Nil disables tracing.
	Trace *trace.Recorder

	// Log receives the driver's structured operational log (worker spawn
	// failures, respawns). Defaults to stderr at the level named by
	// TSTORM_LOG (info when unset); use logx.Nop() to silence.
	Log *logx.Logger

	// TraceSampling samples 1-in-N tuple trees for end-to-end tracing (a
	// power of two; 0 disables). Workers record spans and ship them with
	// heartbeats; the driver's collector assembles the trees.
	TraceSampling int
}

func (c *Config) fillDefaults() {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.Cores <= 0 {
		c.Cores = 4
	}
	if c.CoreMHz <= 0 {
		c.CoreMHz = 2000
	}
	if c.SlotsPerNode <= 0 {
		c.SlotsPerNode = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxHops <= 0 {
		c.MaxHops = DefaultMaxHops
	}
	if c.HeartbeatPeriod <= 0 {
		c.HeartbeatPeriod = 100 * time.Millisecond
	}
	if c.ReadyTimeout <= 0 {
		c.ReadyTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.ApplyTimeout <= 0 {
		c.ApplyTimeout = 10 * time.Second
	}
	if c.SpoutHaltDelay <= 0 {
		c.SpoutHaltDelay = 250 * time.Millisecond
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = DefaultBackoffBase
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = DefaultBackoffCap
	}
	if c.Log == nil {
		c.Log = logx.New(os.Stderr, logx.ParseLevel(os.Getenv(EnvLogLevel)))
	}
}

// workerHandle is the driver's record of one slot's worker process across
// its incarnations.
type workerHandle struct {
	slot cluster.SlotID

	mu       sync.Mutex
	cmd      *exec.Cmd
	pid      int
	dataAddr string
	sess     *session
	restarts int

	// Last-known status from heartbeats/RPCs of the current incarnation.
	lastTotals  live.Totals
	lastAudits  []auditEntry
	lastPending int64
	// lastDropped is the current incarnation's dropped-frames count;
	// retiredDropped sums those of the slot's dead incarnations.
	lastDropped    int64
	retiredDropped int64
	// lastBeat is when the current incarnation last reported status —
	// the liveness signal health rules and /debug/workers age against.
	lastBeat time.Time
}

func (h *workerHandle) setProcess(cmd *exec.Cmd) {
	h.mu.Lock()
	h.cmd = cmd
	h.pid = cmd.Process.Pid
	h.mu.Unlock()
}

func (h *workerHandle) attachSession(s *session, dataAddr string, pid int) {
	h.mu.Lock()
	old := h.sess
	h.sess = s
	h.dataAddr = dataAddr
	if pid != 0 {
		h.pid = pid
	}
	h.mu.Unlock()
	if old != nil {
		old.conn.close()
	}
}

// detachSession clears h.sess if s is still the attached session.
func (h *workerHandle) detachSession(s *session) {
	h.mu.Lock()
	if h.sess == s {
		h.sess = nil
	}
	h.mu.Unlock()
}

func (h *workerHandle) session() *session {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sess
}

func (h *workerHandle) storeStatus(m *msg) {
	h.mu.Lock()
	if m.Totals != nil {
		h.lastTotals = *m.Totals
	}
	h.lastAudits = m.Audits
	h.lastPending = m.Pending
	h.lastDropped = m.DroppedFrames
	h.lastBeat = time.Now()
	h.mu.Unlock()
}

// kill SIGKILLs the current incarnation; reports whether a process was
// there to kill.
func (h *workerHandle) kill() bool {
	h.mu.Lock()
	cmd := h.cmd
	h.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return false
	}
	return cmd.Process.Kill() == nil
}

// Engine is the distributed driver: the same scheduling surface as the
// in-process live engine (it implements live.SchedulerTarget, so the
// unchanged Generator and Algorithm 1 drive it), executed by a fleet of
// real worker processes it spawns and supervises.
type Engine struct {
	cfg   Config
	cl    *cluster.Cluster
	store *coord.Store

	ctrlLn   net.Listener
	ctrlAddr string

	mu      sync.Mutex
	names   []string // topology names in submit order
	apps    map[string]*engine.App
	subs    []submission // wire form, submit order; assignments tracked in assign
	assign  map[string]*cluster.Assignment
	handles map[cluster.SlotID]*workerHandle
	order   []cluster.SlotID
	down    map[cluster.NodeID]bool
	round   *applyRound
	// configured flips once Start's fleet-wide config broadcast succeeded;
	// spoutsHalted mirrors the fleet spout state for respawn catch-up.
	configured   bool
	spoutsHalted bool
	// retired accumulates dead incarnations' last-known counters; audits
	// likewise (Acked/Restarts cumulative, Outstanding dropped — a dead
	// worker's in-flight roots are gone, replay re-emits them elsewhere
	// only if the spout survived).
	retired       live.Totals
	retiredAudits map[string]auditEntry

	// applyMu serializes Apply's halt→quiesce→publish→resume sequence.
	applyMu sync.Mutex

	gen                       atomic.Uint32
	migrations, applies       atomic.Int64
	procCrashes, procRestarts atomic.Int64

	histMu  sync.Mutex
	history []RestartRecord

	// collector assembles worker-shipped spans into tuple trees when
	// tracing is on (nil otherwise).
	collector *tracing.Collector

	sinkMu sync.Mutex
	sink   live.LoadSink

	regCh   chan struct{}
	started atomic.Bool
	stopped atomic.Bool
	stopCh  chan struct{}
	wg      sync.WaitGroup
}

// NewEngine builds a distributed driver. Workers are not spawned until
// Start.
func NewEngine(cfg Config) (*Engine, error) {
	cfg.fillDefaults()
	cl, err := cluster.Uniform(cfg.Nodes, cfg.Cores, cfg.CoreMHz, cfg.SlotsPerNode)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:           cfg,
		cl:            cl,
		store:         coord.NewWallStore(0),
		apps:          make(map[string]*engine.App),
		assign:        make(map[string]*cluster.Assignment),
		handles:       make(map[cluster.SlotID]*workerHandle),
		down:          make(map[cluster.NodeID]bool),
		retiredAudits: make(map[string]auditEntry),
		regCh:         make(chan struct{}, 1),
		stopCh:        make(chan struct{}),
	}
	for _, slot := range cl.Slots() {
		e.handles[slot] = &workerHandle{slot: slot}
		e.order = append(e.order, slot)
	}
	if cfg.TraceSampling != 0 {
		if err := e.SetTraceSampling(cfg.TraceSampling); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// SetTraceSampling sets the 1-in-rate tuple-tree sampling rate (a power of
// two; 0 disables). Must precede Start: the rate ships to workers in the
// config broadcast.
func (e *Engine) SetTraceSampling(rate int) error {
	if e.started.Load() {
		return fmt.Errorf("dist: SetTraceSampling after start")
	}
	if rate == 0 {
		e.cfg.TraceSampling, e.collector = 0, nil
		return nil
	}
	if _, err := tracing.Mask(rate); err != nil {
		return err
	}
	e.cfg.TraceSampling = rate
	if e.collector == nil {
		e.collector = tracing.NewCollector(tracing.Config{})
	}
	return nil
}

// TraceSampling returns the sampling rate (0 = tracing off).
func (e *Engine) TraceSampling() int { return e.cfg.TraceSampling }

// TraceCollector returns the driver's tuple-tree collector — nil when
// tracing is off.
func (e *Engine) TraceCollector() *tracing.Collector { return e.collector }

// ingestSpans feeds one worker's heartbeat span batch into the collector.
func (e *Engine) ingestSpans(spans []tracing.Span) {
	if e.collector != nil && len(spans) > 0 {
		e.collector.Add(spans)
	}
}

// Store exposes the coordination store assignments publish through (the
// ZooKeeper stand-in), for tests and debugging.
func (e *Engine) Store() *coord.Store { return e.store }

// Submit registers one workload (by registry name) with its initial
// assignment. The driver builds it locally too — the scheduler needs the
// topology, and misconfigurations should fail here, not in N workers.
// Must precede Start.
func (e *Engine) Submit(workload string, params any, initial *cluster.Assignment) error {
	if e.started.Load() {
		return fmt.Errorf("dist: submit after start")
	}
	if initial == nil {
		return fmt.Errorf("dist: nil initial assignment")
	}
	raw, err := json.Marshal(params)
	if err != nil {
		return fmt.Errorf("dist: workload params: %w", err)
	}
	built, err := buildWorkload(workload, raw)
	if err != nil {
		return err
	}
	name := built.App.Topology.Name()
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.apps[name]; dup {
		return fmt.Errorf("dist: topology %q already submitted", name)
	}
	for _, exec := range built.App.Topology.Executors() {
		if _, ok := initial.Slot(exec); !ok {
			return fmt.Errorf("dist: initial assignment misses %s", exec)
		}
	}
	e.names = append(e.names, name)
	e.apps[name] = built.App
	e.assign[name] = initial.Clone()
	e.subs = append(e.subs, submission{Workload: workload, Params: raw})
	return nil
}

// Start brings the fleet up: control listener, one supervised worker
// process per slot, a registration barrier, a fleet-wide config broadcast
// (workers come up with spouts halted), then a fleet-wide resume. On
// return every worker is executing.
func (e *Engine) Start() error {
	if !e.started.CompareAndSwap(false, true) {
		return fmt.Errorf("dist: already started")
	}
	e.mu.Lock()
	nTopo := len(e.names)
	e.mu.Unlock()
	if nTopo == 0 {
		return fmt.Errorf("dist: nothing submitted")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.ctrlLn = ln
	e.ctrlAddr = ln.Addr().String()
	e.gen.Store(1)
	e.publishAssignments()
	e.wg.Add(1)
	go e.serveControl()
	for _, slot := range e.order {
		e.wg.Add(1)
		go e.superviseSlot(e.handles[slot])
	}

	deadline := time.Now().Add(e.cfg.ReadyTimeout)
	if err := e.awaitRegistrations(deadline); err != nil {
		e.Stop()
		return err
	}
	// Configure concurrently: each worker builds its topologies and starts
	// its engine halted.
	sessions := e.liveSessions()
	errCh := make(chan error, len(sessions))
	for _, s := range sessions {
		s := s
		go func() { errCh <- e.configureWorker(s) }()
	}
	for range sessions {
		if cfgErr := <-errCh; cfgErr != nil && err == nil {
			err = cfgErr
		}
	}
	if err != nil {
		e.Stop()
		return fmt.Errorf("dist: fleet config failed: %w", err)
	}
	e.mu.Lock()
	e.configured = true
	e.spoutsHalted = false
	e.mu.Unlock()
	for _, s := range e.liveSessions() {
		s.notify(&msg{Type: msgResume})
	}
	e.emitTrace(trace.AssignmentPublished, "", "",
		fmt.Sprintf("fleet up: %d workers, %d topologies", len(sessions), nTopo))
	return nil
}

// awaitRegistrations blocks until every slot has an attached session.
func (e *Engine) awaitRegistrations(deadline time.Time) error {
	for {
		missing := 0
		e.mu.Lock()
		for _, slot := range e.order {
			if e.handles[slot].session() == nil {
				missing++
			}
		}
		e.mu.Unlock()
		if missing == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dist: %d of %d workers failed to register within %s",
				missing, len(e.order), e.cfg.ReadyTimeout)
		}
		select {
		case <-e.regCh:
		case <-time.After(20 * time.Millisecond):
		case <-e.stopCh:
			return fmt.Errorf("dist: stopped during bring-up")
		}
	}
}

// publishAssignments writes every topology's current assignment to the
// coord store at the current generation (initial publish; sessions ship
// later generations).
func (e *Engine) publishAssignments() {
	e.mu.Lock()
	defer e.mu.Unlock()
	gen := e.gen.Load()
	for _, name := range e.names {
		rec := assignmentRecord{Gen: gen, Topology: name, Assignment: e.assign[name]}
		data, _ := json.Marshal(rec)
		e.store.SetOrCreate(assignmentPath(name), data)
	}
}

// Stop tears the fleet down: polite stop RPCs, then SIGKILL, then waits
// for supervisors and the control loop to exit. Idempotent.
func (e *Engine) Stop() {
	if !e.stopped.CompareAndSwap(false, true) {
		return
	}
	close(e.stopCh)
	var wg sync.WaitGroup
	for _, s := range e.liveSessions() {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.rpc(&msg{Type: msgStop}, 500*time.Millisecond)
		}()
	}
	wg.Wait()
	for _, slot := range e.order {
		e.handles[slot].kill()
	}
	if e.ctrlLn != nil {
		e.ctrlLn.Close()
	}
	e.wg.Wait()
}

// Done is closed when the engine stops.
func (e *Engine) Done() <-chan struct{} { return e.stopCh }

// --- live.SchedulerTarget ---

// Topologies lists submitted topology names in submit order.
func (e *Engine) Topologies() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.names...)
}

// App returns a submitted workload's locally built app.
func (e *Engine) App(name string) (*engine.App, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	app, ok := e.apps[name]
	return app, ok
}

// Cluster returns the cluster model the fleet realizes.
func (e *Engine) Cluster() *cluster.Cluster { return e.cl }

// CurrentAssignment returns a copy of a topology's live assignment.
func (e *Engine) CurrentAssignment(name string) (*cluster.Assignment, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	a, ok := e.assign[name]
	if !ok {
		return nil, false
	}
	return a.Clone(), true
}

// DownNodes lists nodes taken out by FailNode, sorted.
func (e *Engine) DownNodes() []cluster.NodeID {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]cluster.NodeID, 0, len(e.down))
	for n := range e.down {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Apply migrates a topology to a new assignment across the process fleet,
// §IV-D end to end: halt every spout, poll workers to quiescence, publish
// the next generation through the coord store (sessions relay it to their
// workers, which move executors and re-route in-flight frames), wait for
// fleet confirmation, smooth, resume. Returns the fleet-wide number of
// executors that moved.
func (e *Engine) Apply(name string, next *cluster.Assignment) (int, error) {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	if !e.started.Load() || e.stopped.Load() {
		return 0, fmt.Errorf("dist: engine not running")
	}
	if next == nil {
		return 0, fmt.Errorf("dist: nil assignment")
	}
	e.mu.Lock()
	cur, ok := e.assign[name]
	if !ok {
		e.mu.Unlock()
		return 0, fmt.Errorf("dist: unknown topology %q", name)
	}
	app := e.apps[name]
	for _, exec := range app.Topology.Executors() {
		if _, ok := next.Slot(exec); !ok {
			e.mu.Unlock()
			return 0, fmt.Errorf("dist: assignment misses %s", exec)
		}
	}
	moved := 0
	for exec, slot := range next.Executors {
		if old, ok := cur.Executors[exec]; !ok || old != slot {
			moved++
		}
	}
	e.mu.Unlock()
	if moved == 0 {
		return 0, nil
	}

	// Halt: no new roots fleet-wide while executors move.
	e.setSpoutsHalted(true)
	defer func() {
		time.Sleep(e.cfg.SpoutHaltDelay)
		e.setSpoutsHalted(false)
	}()
	e.quiesce()

	gen := e.gen.Add(1)
	round := newApplyRound(gen, len(e.liveSessions()))
	e.mu.Lock()
	e.round = round
	e.assign[name] = next.Clone()
	rec := assignmentRecord{Gen: gen, Topology: name, Assignment: next}
	e.mu.Unlock()
	data, _ := json.Marshal(rec)
	if _, err := e.store.SetOrCreate(assignmentPath(name), data); err != nil {
		return 0, fmt.Errorf("dist: publish assignment: %w", err)
	}
	e.emitTrace(trace.AssignmentPublished, name, "",
		fmt.Sprintf("gen %d: %d executors move", gen, moved))

	tm := time.NewTimer(e.cfg.ApplyTimeout)
	defer tm.Stop()
	select {
	case <-round.done:
	case <-tm.C:
		e.emitTrace(trace.ReassignApplied, name, "", fmt.Sprintf("gen %d: fleet confirmation timed out", gen))
	case <-e.stopCh:
	}
	e.mu.Lock()
	e.round = nil
	e.mu.Unlock()
	if round.firstErr != nil {
		return moved, fmt.Errorf("dist: apply gen %d: %w", gen, round.firstErr)
	}
	e.migrations.Add(int64(moved))
	e.applies.Add(1)
	e.emitTrace(trace.ReassignApplied, name, "", fmt.Sprintf("gen %d applied: %d moved", gen, moved))
	return moved, nil
}

// setSpoutsHalted broadcasts halt/resume and records the fleet state for
// respawn catch-up.
func (e *Engine) setSpoutsHalted(halted bool) {
	e.mu.Lock()
	e.spoutsHalted = halted
	e.mu.Unlock()
	typ := msgResume
	if halted {
		typ = msgHalt
	}
	for _, s := range e.liveSessions() {
		s.notify(&msg{Type: typ})
	}
	if halted {
		e.emitTrace(trace.SpoutsHalted, "", "", "fleet-wide")
	} else {
		e.emitTrace(trace.SpoutsResumed, "", "", "fleet-wide")
	}
}

// quiesce polls the fleet's in-flight counts — each worker's queued or
// executing tuples plus the frames its peer writers hold — until they
// reach zero twice in a row (a frame in a socket buffer is invisible
// between the sender's decrement and the receiver's increment, so one
// zero reading can lie) or the drain timeout passes.
func (e *Engine) quiesce() {
	deadline := time.Now().Add(e.cfg.DrainTimeout)
	zeros := 0
	for time.Now().Before(deadline) {
		var sum int64
		for _, s := range e.liveSessions() {
			if reply, err := s.rpc(&msg{Type: msgPending}, time.Second); err == nil {
				sum += reply.Pending
			}
		}
		if sum == 0 {
			zeros++
			if zeros >= 2 {
				e.emitTrace(trace.QueuesDrained, "", "", "fleet quiescent")
				return
			}
		} else {
			zeros = 0
		}
		time.Sleep(10 * time.Millisecond)
	}
	e.emitTrace(trace.QueuesDrained, "", "", "drain timeout — migrating with frames in flight")
}

// Totals aggregates fleet counters: a fresh snapshot from every live
// worker (fallback: its last heartbeat) plus retired incarnations.
// Migrations and Applies are driver-authoritative (every worker counts
// the same fleet-wide moves, so summing would multiply them), and the
// driver's process-level kills and respawns are added on top of the
// workers' executor-level ones.
func (e *Engine) Totals() live.Totals {
	e.mu.Lock()
	sum := e.retired
	e.mu.Unlock()
	for _, slot := range e.orderedSlots() {
		h := e.handleFor(slot)
		if h == nil {
			continue
		}
		if s := h.session(); s != nil {
			if reply, err := s.rpc(&msg{Type: msgTotals}, time.Second); err == nil {
				h.storeStatus(reply)
			}
		}
		h.mu.Lock()
		sum = addTotals(sum, h.lastTotals)
		h.mu.Unlock()
	}
	sum.Migrations = e.migrations.Load()
	sum.Applies = e.applies.Load()
	sum.WorkerCrashes += e.procCrashes.Load()
	sum.WorkerRestarts += e.procRestarts.Load()
	return sum
}

// CachedTotals aggregates fleet counters from the last heartbeats alone —
// no per-worker RPC, so it is cheap enough for a 1 s sampler and never
// blocks on a sick worker. Staleness is bounded by the heartbeat period.
func (e *Engine) CachedTotals() live.Totals {
	e.mu.Lock()
	sum := e.retired
	e.mu.Unlock()
	for _, slot := range e.orderedSlots() {
		h := e.handleFor(slot)
		if h == nil {
			continue
		}
		h.mu.Lock()
		sum = addTotals(sum, h.lastTotals)
		h.mu.Unlock()
	}
	sum.Migrations = e.migrations.Load()
	sum.Applies = e.applies.Load()
	sum.WorkerCrashes += e.procCrashes.Load()
	sum.WorkerRestarts += e.procRestarts.Load()
	return sum
}

// Audit sums a topology's worker-reported at-least-once gauges (workers
// hosting none of its spouts contribute zeros) plus retired incarnations.
func (e *Engine) Audit(name string) (acked, outstanding, restarts int) {
	e.mu.Lock()
	if a, ok := e.retiredAudits[name]; ok {
		acked, restarts = a.Acked, a.Restarts
	}
	e.mu.Unlock()
	for _, slot := range e.orderedSlots() {
		h := e.handleFor(slot)
		if h == nil {
			continue
		}
		h.mu.Lock()
		for _, a := range h.lastAudits {
			if a.Topology == name {
				acked += a.Acked
				outstanding += a.Outstanding
				restarts += a.Restarts
			}
		}
		h.mu.Unlock()
	}
	return acked, outstanding, restarts
}

// retireWorker folds a dead incarnation's last-known counters into the
// retired accumulators and clears its per-incarnation status.
func (e *Engine) retireWorker(h *workerHandle) {
	h.mu.Lock()
	tot := h.lastTotals
	audits := h.lastAudits
	h.lastTotals = live.Totals{}
	h.lastAudits = nil
	h.lastPending = 0
	h.retiredDropped += h.lastDropped
	h.lastDropped = 0
	h.cmd = nil
	sess := h.sess
	h.restarts++
	h.mu.Unlock()
	if sess != nil {
		sess.conn.close()
	}
	e.mu.Lock()
	e.retired = addTotals(e.retired, tot)
	for _, a := range audits {
		r := e.retiredAudits[a.Topology]
		r.Topology = a.Topology
		r.Acked += a.Acked
		r.Restarts += a.Restarts
		e.retiredAudits[a.Topology] = r
	}
	e.mu.Unlock()
}

func addTotals(a, b live.Totals) live.Totals {
	return live.Totals{
		RootsEmitted:     a.RootsEmitted + b.RootsEmitted,
		TuplesSent:       a.TuplesSent + b.TuplesSent,
		InterNodeSent:    a.InterNodeSent + b.InterNodeSent,
		InterProcessSent: a.InterProcessSent + b.InterProcessSent,
		Processed:        a.Processed + b.Processed,
		SinkProcessed:    a.SinkProcessed + b.SinkProcessed,
		Migrations:       a.Migrations + b.Migrations,
		Applies:          a.Applies + b.Applies,
		Acked:            a.Acked + b.Acked,
		LateAcked:        a.LateAcked + b.LateAcked,
		FailedRoots:      a.FailedRoots + b.FailedRoots,
		Replayed:         a.Replayed + b.Replayed,
		Dropped:          a.Dropped + b.Dropped,
		WorkerCrashes:    a.WorkerCrashes + b.WorkerCrashes,
		WorkerRestarts:   a.WorkerRestarts + b.WorkerRestarts,
		CtlCombined:      a.CtlCombined + b.CtlCombined,
		PoolHits:         a.PoolHits + b.PoolHits,
		PoolMisses:       a.PoolMisses + b.PoolMisses,
		TraceSampled:     a.TraceSampled + b.TraceSampled,
		TraceSpanDropped: a.TraceSpanDropped + b.TraceSpanDropped,
	}
}

// --- failure injection ---

// CrashWorker SIGKILLs the worker process owning a slot — the distributed
// runtime's kill -9 is an actual kill -9. The supervisor respawns it on
// the backoff schedule. Returns 1 if a process was killed.
func (e *Engine) CrashWorker(slot cluster.SlotID) int {
	h := e.handleFor(slot)
	if h == nil || !h.kill() {
		return 0
	}
	e.procCrashes.Add(1)
	e.emitTrace(trace.WorkerKilled, "", slot.String(), "SIGKILL")
	return 1
}

// FailNode kills every worker process on a node and fences the node:
// supervisors idle instead of respawning, and the generator schedules
// around it. Returns how many processes were killed.
func (e *Engine) FailNode(node cluster.NodeID) int {
	e.mu.Lock()
	e.down[node] = true
	e.mu.Unlock()
	n := 0
	for _, slot := range e.orderedSlots() {
		if slot.Node != node {
			continue
		}
		if h := e.handleFor(slot); h != nil && h.kill() {
			n++
			e.procCrashes.Add(1)
		}
	}
	e.emitTrace(trace.NodeFailed, "", string(node), fmt.Sprintf("%d workers killed", n))
	return n
}

// RecoverNode lifts a node's fence; its supervisors respawn workers.
func (e *Engine) RecoverNode(node cluster.NodeID) {
	e.mu.Lock()
	delete(e.down, node)
	e.mu.Unlock()
	e.emitTrace(trace.NodeRecovered, "", string(node), "")
}

func (e *Engine) nodeDown(node cluster.NodeID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.down[node]
}

// --- introspection (telemetry, tests, bench) ---

// WorkerStatus is one slot's process-level state.
type WorkerStatus struct {
	Slot     cluster.SlotID `json:"slot"`
	PID      int            `json:"pid"`
	Alive    bool           `json:"alive"`
	Restarts int            `json:"restarts"`
	DataAddr string         `json:"data_addr"`
	Pending  int64          `json:"pending"`
	// DroppedFrames counts data-plane frames this slot's worker (all its
	// incarnations) could not get to a peer: no route, dial refused, or
	// shed by a peer writer after a write error or deadline. The tuples in
	// them are what at-least-once replay re-sends.
	DroppedFrames int64 `json:"dropped_frames"`
	// LastBeat is when the current incarnation last reported status
	// (zero before its first heartbeat).
	LastBeat time.Time `json:"last_beat,omitempty"`
}

// Workers snapshots every slot's process state, in slot order.
func (e *Engine) Workers() []WorkerStatus {
	var out []WorkerStatus
	for _, slot := range e.orderedSlots() {
		h := e.handleFor(slot)
		if h == nil {
			continue
		}
		h.mu.Lock()
		out = append(out, WorkerStatus{
			Slot:     h.slot,
			PID:      h.pid,
			Alive:    h.sess != nil,
			Restarts: h.restarts,
			DataAddr: h.dataAddr,
			Pending:  h.lastPending,
			LastBeat: h.lastBeat,
			// Retired incarnations included: a kill -9 must not zero it.
			DroppedFrames: h.retiredDropped + h.lastDropped,
		})
		h.mu.Unlock()
	}
	return out
}

// Placement snapshots the executor→slot mapping across all topologies,
// sorted by executor, mirroring the live engine's Placement for the
// telemetry layer.
func (e *Engine) Placement() []live.PlacementEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []live.PlacementEntry
	for _, name := range e.names {
		for exec, slot := range e.assign[name].Executors {
			out = append(out, live.PlacementEntry{Executor: exec, Slot: slot})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Executor.Less(out[j].Executor) })
	return out
}

// Generation reports the current assignment generation.
func (e *Engine) Generation() uint32 { return e.gen.Load() }

// Restarts reports how many worker-process respawns the supervisors
// performed.
func (e *Engine) Restarts() int { return int(e.procRestarts.Load()) }

// Trace exposes the recorder the engine was configured with (nil if
// tracing is off) so telemetry can serve the driver's decision log.
func (e *Engine) Trace() *trace.Recorder { return e.cfg.Trace }

// SetLoadSink wires the driver-side destination for worker monitor
// windows (the facade passes the loaddb.DB the generator reads).
func (e *Engine) SetLoadSink(sink live.LoadSink) {
	e.sinkMu.Lock()
	e.sink = sink
	e.sinkMu.Unlock()
}

func (e *Engine) loadSink() live.LoadSink {
	e.sinkMu.Lock()
	defer e.sinkMu.Unlock()
	return e.sink
}

// SetMonitorPeriod re-paces every worker's load monitor.
func (e *Engine) SetMonitorPeriod(period time.Duration) {
	if period <= 0 {
		return
	}
	e.mu.Lock()
	e.cfg.MonitorPeriod = period
	e.mu.Unlock()
	for _, s := range e.liveSessions() {
		s.notify(&msg{Type: msgMonitor, PeriodNs: int64(period)})
	}
}

func (e *Engine) orderedSlots() []cluster.SlotID {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]cluster.SlotID(nil), e.order...)
}

func (e *Engine) handleFor(slot cluster.SlotID) *workerHandle {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.handles[slot]
}

func (e *Engine) emitTrace(kind trace.Kind, topo, where, detail string) {
	if e.cfg.Trace == nil {
		return
	}
	e.cfg.Trace.Emit(trace.Event{
		Wall:     time.Now(),
		Kind:     kind,
		Topology: topo,
		Where:    where,
		Detail:   detail,
	})
}

var _ live.SchedulerTarget = (*Engine)(nil)
