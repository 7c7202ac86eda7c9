package engine

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/coord"
	"tstorm/internal/metrics"
	"tstorm/internal/sim"
	"tstorm/internal/topology"
	"tstorm/internal/trace"
	"tstorm/internal/transport"
	"tstorm/internal/tuple"
)

// AssignmentPath returns the coordination-store path Nimbus publishes a
// topology's assignment under (supervisors poll it every sync period).
func AssignmentPath(topo string) string { return "/assignments/" + topo }

// Config holds the engine's timing and cost parameters. DefaultConfig
// reproduces stock Storm 0.8 behaviour; TStormConfig enables the smooth
// re-assignment machinery of §IV-D.
type Config struct {
	// Seed drives every random choice in the run.
	Seed uint64
	// Cost is the cluster fabric cost model.
	Cost transport.CostModel
	// MessageTimeout is the ack timeout after which a root is failed and
	// replayed (Storm default 30 s).
	MessageTimeout time.Duration
	// SupervisorSync is how often supervisors check for new assignments
	// (Storm default 10 s).
	SupervisorSync time.Duration
	// WorkerStartup is how long a worker process takes from launch until
	// its executors are prepared and processing.
	WorkerStartup time.Duration
	// SmoothReassign enables T-Storm's re-assignment smoothing: per-slot
	// dispatchers routing by assignment ID, delayed shutdown of old
	// workers, and spout halting.
	SmoothReassign bool
	// ShutdownDelay is how long old workers keep draining after a smooth
	// re-assignment (paper: 20 s, twice the supervisor sync period).
	ShutdownDelay time.Duration
	// SpoutHaltDelay is how long spouts stay halted after new workers are
	// up, so bolts are ready before data flows (paper: 10 s).
	SpoutHaltDelay time.Duration
	// LatencyBucket is the reporting granularity of the processing-time
	// series (paper: 1-minute averages).
	LatencyBucket time.Duration
	// AckerCost is the CPU cycles an acker spends per init/ack message.
	AckerCost float64
	// NotifyCost is the CPU cycles a spout spends handling one
	// complete/fail notification.
	NotifyCost float64
	// ControlMsgSize is the serialized size of init/ack/complete messages.
	ControlMsgSize int
	// WorkerMemMB is each worker process's (JVM) memory footprint. When
	// the live workers on a node overcommit its physical memory, the node
	// pages and every service slows by SwapPenalty per unit of
	// overcommitment — the effect worker-node consolidation removes (§V:
	// the default scheduler runs 4 workers per 2 GB node on the
	// Throughput Test; T-Storm runs 1).
	WorkerMemMB float64
	// ReservedMemMB is the memory the OS, supervisor, ZooKeeper and other
	// daemons occupy on every node; only the remainder is available to
	// worker processes.
	ReservedMemMB float64
	// SwapPenalty is the slowdown factor per unit memory overcommitment.
	SwapPenalty float64
	// Trace, when non-nil, receives structured runtime events (worker
	// lifecycle, assignments, drops, failures).
	Trace *trace.Recorder
	// BatchFlush, when positive, enables Storm 0.8-style transfer
	// batching: while the NIC is busy, inter-node messages to the same
	// destination slot coalesce (up to BatchFlush extra wait, or until
	// BatchMaxTuples accumulate) and share one transmission and one
	// propagation delay. An idle NIC sends immediately, so light traffic
	// pays no batching latency. Off by default; the calibrated figures
	// model per-tuple sends.
	BatchFlush time.Duration
	// BatchMaxTuples caps a batch's size (0 = 64).
	BatchMaxTuples int
}

// DefaultConfig returns a configuration reproducing stock Storm.
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		Cost:           transport.DefaultCostModel(),
		MessageTimeout: 30 * time.Second,
		SupervisorSync: 10 * time.Second,
		WorkerStartup:  2 * time.Second,
		SmoothReassign: false,
		ShutdownDelay:  20 * time.Second,
		SpoutHaltDelay: 10 * time.Second,
		LatencyBucket:  time.Minute,
		AckerCost:      Cycles(20*time.Microsecond, 2000),
		NotifyCost:     Cycles(10*time.Microsecond, 2000),
		ControlMsgSize: 32,
		WorkerMemMB:    700,
		ReservedMemMB:  875,
		SwapPenalty:    3.5,
	}
}

// TStormConfig returns DefaultConfig with T-Storm's smooth re-assignment
// enabled.
func TStormConfig() Config {
	cfg := DefaultConfig()
	cfg.SmoothReassign = true
	return cfg
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Cost.Validate(); err != nil {
		return err
	}
	if c.MessageTimeout <= 0 || c.SupervisorSync <= 0 || c.WorkerStartup < 0 ||
		c.ShutdownDelay < 0 || c.SpoutHaltDelay < 0 || c.LatencyBucket <= 0 {
		return fmt.Errorf("engine: non-positive duration in config")
	}
	if c.AckerCost < 0 || c.NotifyCost < 0 || c.ControlMsgSize < 0 ||
		c.WorkerMemMB < 0 || c.ReservedMemMB < 0 || c.SwapPenalty < 0 {
		return fmt.Errorf("engine: negative cost in config")
	}
	return nil
}

// ExecutorLoadSample is one executor's CPU consumption since the previous
// drain, as a load monitor would read it from JMX.
type ExecutorLoadSample struct {
	Exec   topology.ExecutorID
	Cycles float64
}

type nodeState struct {
	node cluster.Node
	nic  *transport.NIC
	// session is the supervisor's coordination session; its ephemeral
	// heartbeat znode is Nimbus's liveness signal. everHeartbeat guards
	// the failure detector during startup.
	session       *coord.Session
	everHeartbeat bool
	// batches holds the open transfer batch per destination slot when
	// batching is enabled.
	batches map[*slotState]*transferBatch
	// down marks a failed node: workers dead, messages dropped, no
	// heartbeats.
	down bool
	// residentExecs counts executor threads hosted by live workers here;
	// activeWorkers counts live worker processes (starting + running +
	// stopping). Both drive the busy-spin CPU contention model.
	residentExecs int
	activeWorkers int
	slots         map[int]*slotState
	ports         []int // sorted
}

type slotState struct {
	id         cluster.SlotID
	current    *worker
	dispatcher *transport.Dispatcher
	// pending holds messages that arrived while no worker was listening on
	// the slot yet — senders' transport clients retry connections and
	// queue, they do not drop. Drained into the next worker that starts
	// here; cleared when the slot is reconciled to empty.
	pending []message
}

// maxSlotPending bounds the per-slot connect-retry buffer.
const maxSlotPending = 100000

// topoState is what the runtime keeps per submitted topology. The hot path
// reaches it by pointer (executors, generations and the per-executor
// topoOf table hold one); only the cold paths look it up by name.
type topoState struct {
	name string
	app  *App
	tm   *TopologyMetrics
	// The topology's executors are the dense indexes base..base+n-1: an
	// executor's is base plus its Topology.Number. Its acker task i is
	// ackerBase+i.
	base, n           int
	ackers, ackerBase int
	// current is the newest published generation.
	current *generation
}

// generation is one published assignment with its placement table: where
// each of the topology's executors lives under it, resolved to the node and
// slot state once at publication so that sending a message indexes a slice
// instead of hashing executor and node names.
type generation struct {
	id    int64
	ts    *topoState
	a     *cluster.Assignment
	place []placement // by dense index - ts.base
}

type placement struct {
	ns *nodeState
	ss *slotState
}

// Runtime is the simulated Storm cluster: nodes, supervisors, workers,
// executors, and the message fabric between them.
type Runtime struct {
	cfg   Config
	sim   *sim.Engine
	cl    *cluster.Cluster
	coord *coord.Store

	// topos holds every submitted topology under its name; appOrder lists
	// the names, sorted.
	topos    map[string]*topoState
	appOrder []string

	denseRev []topology.ExecutorID
	topoOf   []*topoState // per dense executor

	traffic *metrics.TrafficMatrix
	cpu     []float64 // per dense executor, cycles since last drain

	generations map[int64]*generation

	nodes     map[cluster.NodeID]*nodeState
	nodeOrder []cluster.NodeID

	// flights is the free list of in-flight message events.
	flights []*flight
	// timeouts queues every root's MessageTimeout: one constant delay
	// armed as time goes by, so its instants never decrease.
	timeouts *sim.Lane
}

// NewRuntime builds a runtime over the given cluster.
func NewRuntime(cfg Config, cl *cluster.Cluster) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine(cfg.Seed)
	r := &Runtime{
		cfg:         cfg,
		sim:         eng,
		cl:          cl,
		coord:       coord.NewStore(eng, time.Millisecond),
		topos:       make(map[string]*topoState),
		traffic:     metrics.NewTrafficMatrix(),
		generations: make(map[int64]*generation),
		nodes:       make(map[cluster.NodeID]*nodeState),
		timeouts:    eng.NewLane(),
	}
	for _, n := range cl.Nodes() {
		ns := &nodeState{
			node:  n,
			nic:   transport.NewNIC(cfg.Cost),
			slots: make(map[int]*slotState),
		}
		for p := 0; p < n.NumSlots; p++ {
			port := cluster.BasePort + p
			ns.slots[port] = &slotState{
				id:         cluster.SlotID{Node: n.ID, Port: port},
				dispatcher: transport.NewDispatcher(),
			}
			ns.ports = append(ns.ports, port)
		}
		sort.Ints(ns.ports)
		r.nodes[n.ID] = ns
		r.nodeOrder = append(r.nodeOrder, n.ID)
	}
	// Pre-create the supervisors' heartbeat directory, as Storm's setup
	// does in ZooKeeper.
	if err := r.coord.CreateAll("/supervisors", nil); err != nil {
		return nil, fmt.Errorf("engine: init coordination tree: %w", err)
	}
	// Supervisors sync every SupervisorSync, phase-shifted per node: as in
	// a real cluster, their timers are not aligned, which is what makes
	// abrupt re-assignment lossy ("creation and termination of workers...
	// are not perfectly coordinated", §IV-D) and what T-Storm's smoothing
	// compensates for.
	for i, nid := range r.nodeOrder {
		ns := r.nodes[nid]
		offset := time.Second + time.Duration(i)*cfg.SupervisorSync/time.Duration(len(r.nodeOrder))
		eng.Every(offset, cfg.SupervisorSync, func() {
			if ns.down {
				return
			}
			r.heartbeat(ns)
			r.supervise(ns)
		})
	}
	// Nimbus's failure detector runs on the same cadence.
	eng.Every(time.Second, cfg.SupervisorSync, r.nimbusCheckFailures)
	return r, nil
}

// Sim exposes the simulation engine (for scheduling monitors, schedule
// generators and experiment logic alongside the runtime).
func (r *Runtime) Sim() *sim.Engine { return r.sim }

// Coord exposes the coordination store.
func (r *Runtime) Coord() *coord.Store { return r.coord }

// Cluster returns the physical cluster description.
func (r *Runtime) Cluster() *cluster.Cluster { return r.cl }

// Config returns the runtime's configuration.
func (r *Runtime) Config() Config { return r.cfg }

// emit records a trace event if a recorder is attached.
func (r *Runtime) emit(kind trace.Kind, topo, where, detail string) {
	if r.cfg.Trace == nil {
		return
	}
	r.cfg.Trace.Emit(trace.Event{
		At: r.sim.Now(), Kind: kind, Topology: topo, Where: where, Detail: detail,
	})
}

// Submit registers the app and publishes its initial assignment. The
// caller computes the initial placement (Storm's default scheduler or
// T-Storm's modified initial scheduler).
func (r *Runtime) Submit(app *App, initial *cluster.Assignment) error {
	if err := app.Validate(); err != nil {
		return err
	}
	name := app.Topology.Name()
	if r.topos[name] != nil {
		return fmt.Errorf("engine: topology %q already submitted", name)
	}
	if err := r.validateAssignment(name, app, initial); err != nil {
		return err
	}
	execs := app.Topology.Executors()
	ts := &topoState{
		name: name, app: app, tm: newTopologyMetrics(r.cfg.LatencyBucket),
		base: len(r.denseRev), n: len(execs), ackers: app.Topology.Ackers(),
	}
	for _, e := range execs {
		if e.Component == topology.AckerComponent && e.Index == 0 {
			ts.ackerBase = len(r.denseRev)
		}
		r.denseRev = append(r.denseRev, e)
		r.topoOf = append(r.topoOf, ts)
		r.cpu = append(r.cpu, 0)
	}
	r.topos[name] = ts
	r.appOrder = append(r.appOrder, name)
	sort.Strings(r.appOrder)
	return r.PublishAssignment(name, initial)
}

// App returns a submitted app.
func (r *Runtime) App(topo string) (*App, bool) {
	if ts := r.topos[topo]; ts != nil {
		return ts.app, true
	}
	return nil, false
}

// Topologies lists submitted topology names, sorted.
func (r *Runtime) Topologies() []string {
	out := make([]string, len(r.appOrder))
	copy(out, r.appOrder)
	return out
}

// ExecutorByDense maps a dense executor index back to its identity.
func (r *Runtime) ExecutorByDense(i int) topology.ExecutorID { return r.denseRev[i] }

// PublishAssignment validates and publishes a new assignment for the
// topology: it becomes the current generation, is written to the
// coordination store, and supervisors apply it at their next sync.
func (r *Runtime) PublishAssignment(topo string, a *cluster.Assignment) error {
	ts := r.topos[topo]
	if ts == nil {
		return fmt.Errorf("engine: unknown topology %q", topo)
	}
	if err := r.validateAssignment(topo, ts.app, a); err != nil {
		return err
	}
	pub := a.Clone()
	if pub.ID == 0 {
		pub.ID = int64(r.sim.Now()) + 1 // non-zero, unique per instant
	}
	for r.generations[pub.ID] != nil {
		pub.ID++
	}
	// validateAssignment found every executor's node and slot.
	g := &generation{id: pub.ID, ts: ts, a: pub, place: make([]placement, ts.n)}
	for i := range g.place {
		s := pub.Executors[r.denseRev[ts.base+i]]
		ns := r.nodes[s.Node]
		g.place[i] = placement{ns: ns, ss: ns.slots[s.Port]}
	}
	r.generations[pub.ID] = g
	ts.current = g
	data, err := json.Marshal(pub)
	if err != nil {
		return fmt.Errorf("engine: marshal assignment: %w", err)
	}
	if _, err := r.coord.SetOrCreate(AssignmentPath(topo), data); err != nil {
		return fmt.Errorf("engine: publish assignment: %w", err)
	}
	tm := ts.tm
	tm.NodesInUse.Set(r.sim.Now(), float64(pub.NumUsedNodes()))
	tm.Reassignments = append(tm.Reassignments, ReassignEvent{
		At: r.sim.Now(), AssignID: pub.ID,
		UsedNodes: pub.NumUsedNodes(), UsedSlots: len(pub.UsedSlots()),
	})
	r.emit(trace.AssignmentPublished, topo, "",
		fmt.Sprintf("id=%d nodes=%d slots=%d", pub.ID, pub.NumUsedNodes(), len(pub.UsedSlots())))
	return nil
}

func (r *Runtime) validateAssignment(topo string, app *App, a *cluster.Assignment) error {
	execs := app.Topology.Executors()
	if len(a.Executors) != len(execs) {
		return fmt.Errorf("engine: assignment for %q places %d executors, topology has %d",
			topo, len(a.Executors), len(execs))
	}
	for _, e := range execs {
		s, ok := a.Executors[e]
		if !ok {
			return fmt.Errorf("engine: executor %v unplaced", e)
		}
		ns, ok := r.nodes[s.Node]
		if !ok {
			return fmt.Errorf("engine: executor %v assigned to unknown node %q", e, s.Node)
		}
		if _, ok := ns.slots[s.Port]; !ok {
			return fmt.Errorf("engine: executor %v assigned to missing slot %v", e, s)
		}
	}
	// A slot hosts workers of exactly one topology.
	for otherName, other := range r.topos {
		if otherName == topo || other.current == nil {
			continue
		}
		otherSlots := make(map[cluster.SlotID]bool)
		for _, s := range other.current.a.Executors {
			otherSlots[s] = true
		}
		for _, s := range a.Executors {
			if otherSlots[s] {
				return fmt.Errorf("engine: slot %v already hosts topology %q", s, otherName)
			}
		}
	}
	return nil
}

// CurrentAssignment returns the topology's newest published assignment.
func (r *Runtime) CurrentAssignment(topo string) (*cluster.Assignment, bool) {
	ts := r.topos[topo]
	if ts == nil || ts.current == nil {
		return nil, false
	}
	return ts.current.a.Clone(), true
}

// Metrics returns the topology's metric set.
func (r *Runtime) Metrics(topo string) *TopologyMetrics {
	if ts := r.topos[topo]; ts != nil {
		return ts.tm
	}
	return nil
}

// RunFor advances the simulation by d.
func (r *Runtime) RunFor(d time.Duration) error {
	return r.sim.RunUntil(r.sim.Now().Add(d))
}

// DrainLoadSamples returns and resets each executor's CPU cycles consumed
// since the last drain, in dense index order — the signal the paper's load
// monitors collect via getThreadCpuTime.
func (r *Runtime) DrainLoadSamples() []ExecutorLoadSample {
	out := make([]ExecutorLoadSample, 0, len(r.denseRev))
	for i, e := range r.denseRev {
		out = append(out, ExecutorLoadSample{Exec: e, Cycles: r.cpu[i]})
		r.cpu[i] = 0
	}
	return out
}

// DrainTraffic returns and resets the inter-executor tuple counts since
// the last drain, keyed by dense executor index pairs.
func (r *Runtime) DrainTraffic() map[metrics.Pair]float64 { return r.traffic.Drain() }

// ---- message fabric ----

type msgKind uint8

const (
	msgData     msgKind = iota + 1 // data tuple for a bolt
	msgInit                        // acker: register root
	msgAck                         // acker: XOR update
	msgComplete                    // spout: tuple tree fully processed
	// The last two never cross the fabric: an executor queues them for
	// itself.
	msgEmit // spout emit cycle
	msgFail // spout: deliver Fail(msgID) to user code
)

// message is one unit of work for an executor, as it travels the fabric
// and as it waits in the executor's queue.
type message struct {
	kind msgKind
	// gen is the sender's assignment generation; it travels with the
	// message so every downstream hop keeps the sender's routes.
	gen *generation
	// to is the target's dense executor index.
	to int
	// data
	in tuple.Tuple
	// acker protocol
	root       tuple.ID
	xor        tuple.ID
	spoutDense int
	emitAt     sim.Time
	deserCost  float64
	size       int
}

// flight is one message on its way to a slot: the event send schedules.
// Flights are pooled — a delivery returns its flight to the runtime's free
// list — so a hop allocates nothing once the pool has grown to the number
// of messages in the air.
type flight struct {
	rt *Runtime
	to placement
	m  message
}

func (f *flight) Fire() {
	rt := f.rt
	rt.deliver(f.to, &f.m)
	f.m.in.Values = nil // let go of the payload
	rt.flights = append(rt.flights, f)
}

// launch schedules m's arrival at dst.
func (r *Runtime) launch(arrive sim.Time, dst placement, m *message) {
	var f *flight
	if n := len(r.flights); n > 0 {
		f, r.flights = r.flights[n-1], r.flights[:n-1]
	} else {
		f = &flight{rt: r}
	}
	f.to, f.m = dst, *m
	r.sim.AtEvent(arrive, f)
}

// send routes a message from a live executor to its target, charging
// serialization, NIC and propagation costs. Traffic between the logical
// pair is counted for the monitors. The target's slot comes from the
// placement table of the generation the message is stamped with; a
// message with no generation uses the topology's newest.
func (r *Runtime) send(from *executor, gen *generation, m *message) {
	r.traffic.Add(from.dense, m.to, 1)
	ts := from.ts
	if gen == nil {
		gen = ts.current
	}
	m.gen = gen
	dst := gen.place[m.to-ts.base]
	src := from.w
	hop := transport.Classify(src.ss.id, dst.ss.id)
	arrive := r.sim.Now()
	if hop != transport.HopLocal {
		ser := r.cfg.Cost.SerializeCycles(m.size)
		r.cpu[from.dense] += ser
		m.deserCost = ser
	}
	switch hop {
	case transport.HopLocal:
		arrive = arrive.Add(r.cfg.Cost.LocalDelay)
	case transport.HopInterProcess:
		arrive = arrive.Add(r.cfg.Cost.LoopbackDelay)
	case transport.HopInterNode:
		if r.cfg.BatchFlush > 0 {
			r.enqueueBatch(src.ns, dst, m)
			return
		}
		done := src.ns.nic.Send(r.sim.Now(), m.size)
		arrive = done.Add(r.cfg.Cost.NetworkDelay)
	}
	r.launch(arrive, dst, m)
}

// transferBatch is an open Storm-style transfer buffer to one slot.
type transferBatch struct {
	msgs  []message
	bytes int
}

// enqueueBatch coalesces an inter-node message into the open batch for
// its destination slot. With an idle NIC and no open batch the message
// goes straight to the wire; otherwise it waits for the wire to clear
// (bounded by BatchFlush) and shares the next transmission.
func (r *Runtime) enqueueBatch(ns *nodeState, dst placement, m *message) {
	if ns.batches == nil {
		ns.batches = make(map[*slotState]*transferBatch)
	}
	b := ns.batches[dst.ss]
	if b == nil {
		now := r.sim.Now()
		if ns.nic.FreeAt() <= now {
			// Wire idle: no reason to wait.
			done := ns.nic.Send(now, m.size)
			r.launch(done.Add(r.cfg.Cost.NetworkDelay), dst, m)
			return
		}
		b = &transferBatch{}
		ns.batches[dst.ss] = b
		wait := ns.nic.FreeAt().Sub(now)
		if wait > r.cfg.BatchFlush {
			wait = r.cfg.BatchFlush
		}
		r.sim.After(wait, func() { r.flushBatch(ns, dst) })
	}
	b.msgs = append(b.msgs, *m)
	b.bytes += m.size
	maxTuples := r.cfg.BatchMaxTuples
	if maxTuples <= 0 {
		maxTuples = 64
	}
	if len(b.msgs) >= maxTuples {
		r.flushBatch(ns, dst)
	}
}

// flushBatch transmits an open batch as one wire message: the NIC and the
// propagation delay are paid once, amortized over every tuple inside.
func (r *Runtime) flushBatch(ns *nodeState, dst placement) {
	b := ns.batches[dst.ss]
	if b == nil || len(b.msgs) == 0 {
		return
	}
	delete(ns.batches, dst.ss)
	done := ns.nic.Send(r.sim.Now(), b.bytes)
	arrive := done.Add(r.cfg.Cost.NetworkDelay)
	msgs := b.msgs
	r.sim.At(arrive, func() {
		for i := range msgs {
			r.deliver(dst, &msgs[i])
		}
	})
}

// deliver hands an arriving message to the right worker generation on the
// destination slot, or drops it if no suitable worker is accepting. It
// only reads m: whoever keeps the message copies it.
func (r *Runtime) deliver(dst placement, m *message) {
	if dst.ns.down {
		r.drop(m)
		return
	}
	ss := dst.ss
	var w *worker
	if r.cfg.SmoothReassign {
		if got, ok := ss.dispatcher.Route(m.gen.id); ok {
			w = got.(*worker)
		}
	} else {
		w = ss.current
	}
	if w == nil || !w.accepting() {
		if len(ss.pending) < maxSlotPending {
			ss.pending = append(ss.pending, *m)
		} else {
			r.drop(m)
		}
		return
	}
	if w.state == workerStarting {
		w.inbound = append(w.inbound, *m)
		return
	}
	ex := w.executor(m.to)
	if ex == nil || ex.dead {
		r.drop(m)
		return
	}
	ex.enqueue(m)
}

func (r *Runtime) drop(m *message) {
	ts := r.topoOf[m.to]
	ts.tm.Dropped++
	// Drops can be very frequent; trace only the first few per topology.
	if ts.tm.Dropped <= 10 {
		r.emit(trace.MessageDropped, ts.name, "", r.denseRev[m.to].String())
	}
}

// newID draws a random non-zero 64-bit message ID.
func (r *Runtime) newID() tuple.ID {
	for {
		id := tuple.ID(r.sim.Rand().Uint64())
		if id != 0 {
			return id
		}
	}
}

// ---- supervision ----

// supervise is one supervisor's sync pass: fetch each topology's
// assignment from the coordination store and reconcile this node's slots.
func (r *Runtime) supervise(ns *nodeState) {
	for _, topo := range r.appOrder {
		data, _, err := r.coord.Get(AssignmentPath(topo))
		if err != nil {
			continue
		}
		var a cluster.Assignment
		if err := json.Unmarshal(data, &a); err != nil {
			continue
		}
		// Only PublishAssignment writes that path, so the generation exists.
		if g := r.generations[a.ID]; g != nil {
			r.reconcileNode(ns, g)
		}
	}
}
