package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/loaddb"
	"tstorm/internal/topology"
	"tstorm/internal/trace"
)

// DefaultMonitorPeriod is the paper's load-monitoring period.
const DefaultMonitorPeriod = 20 * time.Second

// monitorOverloadThreshold is the node-load fraction of capacity above
// which a sampling round reports an overload-detected trace event (the
// simulated generator reschedules at 0.5; the live monitor only reports,
// so it flags the more alarming level).
const monitorOverloadThreshold = 0.9

// LoadSink receives sampled monitor windows. The in-process runtime wires
// a *loaddb.DB directly; a distributed worker wires a proxy that ships
// each window over its control connection into the driver's database, so
// the unchanged loaddb/scheduler stack consumes fleet-wide measurements.
type LoadSink interface {
	ApplyWindow(loads map[topology.ExecutorID]float64, flows map[loaddb.FlowKey]float64)
	Forget(topo string)
}

var _ LoadSink = (*loaddb.DB)(nil)

// MemorySink is the optional memory-signal extension of LoadSink. It is
// a separate interface discovered by type assertion — not a new method on
// LoadSink — because ApplyWindow's shape is part of the distributed
// control-plane protocol (workers proxy windows over their control
// connection) and must not change under a wire-incompatible extension.
// Sinks that don't implement it simply never see memory samples, and
// demand derivation falls back to the model baseline.
type MemorySink interface {
	ApplyMemory(mem map[topology.ExecutorID]float64)
}

var _ MemorySink = (*loaddb.DB)(nil)

// Per-executor memory model of the live monitor: a fixed baseline (the
// executor's channels, routing scratch, and component state) plus a
// backlog share — tuples waiting in the bounded queue stay in memory
// until drained, so a congested executor reports a larger
// footprint and memory-aware schedulers (rstorm) spread it away from
// already-full nodes.
const (
	execBaseMemMB       = 64.0
	execQueueShareMemMB = 192.0
)

// Monitor is the live-runtime load monitor (§IV-B over wall-clock time):
// every period it drains each executor's accumulated CPU time and the
// inter-executor tuple counts, converts them to instantaneous MHz and
// tuples/s, and folds the whole window into the load database — the same
// EWMA pipeline the simulated monitors feed, so the unchanged scheduling
// algorithms consume live measurements transparently.
type Monitor struct {
	eng    *Engine
	db     LoadSink
	period time.Duration

	// sampleMu serializes sampling rounds (the periodic loop against
	// manual Sample calls) and guards the fields below.
	sampleMu sync.Mutex
	// lastSample is when the counters were last drained; rates divide by
	// the measured elapsed time since then, not the configured period, so
	// ticker drift and off-cycle manual samples cannot skew the database.
	lastSample time.Time
	// knownFlows tracks pairs ever seen so silent pairs decay toward 0
	// instead of freezing at their last estimate.
	knownFlows map[loaddb.FlowKey]bool
	// forgotten lists topologies dropped via Forget: their executors are
	// skipped entirely so samples cannot resurrect keys the database has
	// deleted.
	forgotten map[string]bool

	samples atomic.Int64

	// lastSampleNanos (unix nanos of the last completed round) and
	// lastRoundNanos (how long that round took) are the stalled-monitor
	// gauges: a monitor that stops sampling — the silent failure mode of
	// §IV-B — shows up on /metrics as an ever-growing last-sample age.
	lastSampleNanos atomic.Int64
	lastRoundNanos  atomic.Int64

	tick *ticker
}

// StartMonitor launches the sampling goroutine. The first sample is taken
// one full period after start.
func StartMonitor(eng *Engine, db LoadSink, period time.Duration) *Monitor {
	if period <= 0 {
		period = DefaultMonitorPeriod
	}
	m := &Monitor{
		eng:        eng,
		db:         db,
		period:     period,
		lastSample: time.Now(),
		knownFlows: make(map[loaddb.FlowKey]bool),
		forgotten:  make(map[string]bool),
	}
	m.lastSampleNanos.Store(time.Now().UnixNano())
	m.tick = startTicker(eng.stopCh, period, m.Sample)
	return m
}

// Stop halts sampling and waits for the goroutine to exit. It is safe to
// call from multiple goroutines, concurrently or repeatedly.
func (m *Monitor) Stop() { m.tick.stop() }

// Samples reports how many sampling rounds have run.
func (m *Monitor) Samples() int { return int(m.samples.Load()) }

// LastSampleAge reports how long ago the last sampling round completed
// (since StartMonitor if none has). A stalled monitor shows an age far
// beyond its period.
func (m *Monitor) LastSampleAge() time.Duration {
	return time.Duration(time.Now().UnixNano() - m.lastSampleNanos.Load())
}

// LastRoundDuration reports how long the last sampling round took (0
// before the first round).
func (m *Monitor) LastRoundDuration() time.Duration {
	return time.Duration(m.lastRoundNanos.Load())
}

// Forget drops a topology from the monitor's memory and removes its
// records from the load database: knownFlows entries are pruned and later
// samples skip the topology's executors, so the zero-rate decay writes
// cannot resurrect keys DB.Forget deleted (which would also keep HasData
// true for a dead topology).
func (m *Monitor) Forget(topo string) {
	m.sampleMu.Lock()
	m.forgotten[topo] = true
	for k := range m.knownFlows {
		if k.From.Topology == topo || k.To.Topology == topo {
			delete(m.knownFlows, k)
		}
	}
	m.sampleMu.Unlock()
	m.db.Forget(topo)
}

// Forgotten reports whether Forget was called for the topology — the
// telemetry layer uses it to keep dead topologies out of the placement
// view (the engine itself has no topology-removal API).
func (m *Monitor) Forgotten(topo string) bool {
	m.sampleMu.Lock()
	defer m.sampleMu.Unlock()
	return m.forgotten[topo]
}

// Sample performs one sampling round: drain CPU counters and the traffic
// matrix, convert to MHz and tuples/s over the wall-clock time actually
// elapsed since the previous drain, and batch the window into the
// database.
func (m *Monitor) Sample() {
	m.sampleMu.Lock()
	defer m.sampleMu.Unlock()
	now := time.Now()
	secs := now.Sub(m.lastSample).Seconds()
	if secs <= 0 {
		secs = m.period.Seconds()
	}
	m.lastSample = now

	eng := m.eng
	rt := eng.routes.Load()

	loads := make(map[topology.ExecutorID]float64, len(rt.byDense))
	mems := make(map[topology.ExecutorID]float64, len(rt.byDense))
	nodeLoad := make(map[cluster.NodeID]float64)
	for _, le := range rt.byDense {
		nanos := le.cpuNanos.Swap(0) // drain even when skipped below
		if m.forgotten[le.id.Topology] {
			continue
		}
		if !rt.local[le.dense] {
			// Routing proxy: the executor runs (and is measured) in another
			// worker process; reporting it here as zero-load would corrupt
			// the shared EWMA the owner feeds.
			continue
		}
		if eng.NodeDown(rt.slotOf[le.dense].Node) {
			// Dead nodes are not reported: their executors vanish from the
			// load picture, so the next schedule (with the node fenced off
			// the candidate set) places them purely by where their flows
			// pull them — the paper's reschedule-around-failure behaviour.
			continue
		}
		mhz := float64(nanos) / 1e9 / secs * eng.cfg.RefMHz
		loads[le.id] = mhz
		nodeLoad[rt.slotOf[le.dense].Node] += mhz
		backlog := min(float64(le.queued.Load())/queueBound, 1)
		mems[le.id] = execBaseMemMB + execQueueShareMemMB*backlog
	}

	flows := make(map[loaddb.FlowKey]float64)
	for p, count := range eng.traffic.Drain() {
		from, to := rt.denseRev[p.From], rt.denseRev[p.To]
		if m.forgotten[from.Topology] || m.forgotten[to.Topology] {
			continue
		}
		k := loaddb.FlowKey{From: from, To: to}
		// A frame shed after the window it was sent in closed leaves a
		// negative count (Shed): what that window reported stays reported.
		flows[k] = max(count, 0) / secs
		m.knownFlows[k] = true
	}
	for k := range m.knownFlows {
		if _, active := flows[k]; active {
			continue
		}
		if fe := rt.executor(k.From.Topology, k.From.Component, k.From.Index); fe != nil && !rt.local[fe.dense] {
			// The producer migrated to another worker process: its flows are
			// someone else's to report now. Decaying them to zero here would
			// fight the new owner's real measurements window after window.
			delete(m.knownFlows, k)
			continue
		}
		flows[k] = 0
	}
	m.db.ApplyWindow(loads, flows)
	if ms, ok := m.db.(MemorySink); ok {
		ms.ApplyMemory(mems)
	}

	m.lastRoundNanos.Store(int64(time.Since(now)))
	m.lastSampleNanos.Store(time.Now().UnixNano())
	eng.emit(trace.MonitorSampled, "", "",
		fmt.Sprintf("%d executors, %d flows over %.3fs window", len(loads), len(flows), secs))
	// Counted only once its event is out: a caller that sees Samples()
	// reach n finds n monitor-sampled events on the trace.
	m.samples.Add(1)
	for node, mhz := range nodeLoad {
		n, ok := eng.cl.Node(node)
		if !ok {
			continue
		}
		if capMHz := n.CapacityMHz(); capMHz > 0 && mhz > monitorOverloadThreshold*capMHz {
			eng.emit(trace.OverloadDetected, "", string(node),
				fmt.Sprintf("measured %.0f MHz > %.0f%% of %.0f MHz capacity",
					mhz, 100*monitorOverloadThreshold, capMHz))
		}
	}
}
