package live

import (
	"sort"

	"tstorm/internal/cluster"
	"tstorm/internal/metrics"
	"tstorm/internal/topology"
)

// Totals is a snapshot of the engine's lifetime counters. Subtracting two
// snapshots measures a window — benchmarks take one before and one after
// a measurement phase.
type Totals struct {
	// RootsEmitted counts spout root tuples.
	RootsEmitted int64
	// TuplesSent counts executor-to-executor transfers.
	TuplesSent int64
	// InterNodeSent counts transfers that crossed an emulated node
	// boundary (paying serialization + copy work).
	InterNodeSent int64
	// InterProcessSent counts transfers between slots on one node
	// (paying serialization only).
	InterProcessSent int64
	// Processed counts tuples processed by bolts.
	Processed int64
	// SinkProcessed counts tuples processed by terminal bolts.
	SinkProcessed int64
	// Migrations counts executors moved across all Apply calls.
	Migrations int64
	// Applies counts applied re-assignments.
	Applies int64
	// Acked counts anchored roots fully processed and acked to a spout.
	Acked int64
	// LateAcked counts, of those, completions arriving after a timeout.
	LateAcked int64
	// FailedRoots counts roots failed by a spout's timeout wheel.
	FailedRoots int64
	// Replayed counts re-emits of an already-pending spout msgID.
	Replayed int64
	// Dropped counts tuples dropped at (or drained from) dead executors.
	Dropped int64
	// WorkerCrashes counts executor goroutines killed by CrashWorker or
	// FailNode; WorkerRestarts counts supervisor restarts.
	WorkerCrashes  int64
	WorkerRestarts int64
	// CtlCombined counts XOR acks folded into an already-buffered ack for
	// the same root on the sender side, before reaching any channel.
	CtlCombined int64
	// PoolHits and PoolMisses sum the batch pools' reuse counters (pool.go):
	// hits served recycled memory, misses had to allocate.
	PoolHits   int64
	PoolMisses int64
	// TraceSampled counts sampled root registrations (replays included);
	// TraceSpanDropped counts spans lost to full executor rings.
	TraceSampled     int64
	TraceSpanDropped int64
}

// Totals returns the current counter snapshot.
func (eng *Engine) Totals() Totals {
	var poolHits, poolMisses int64
	pool := func(hits, misses int64) { poolHits, poolMisses = poolHits+hits, poolMisses+misses }
	pool(eng.msgPool.stats())
	pool(eng.ctlPool.stats())
	pool(eng.ackPool.stats())
	pool(eng.encPool.stats())
	pool(eng.slabPool.stats())
	return Totals{
		RootsEmitted:     eng.rootsEmitted.Load(),
		TuplesSent:       eng.tuplesSent.Load(),
		InterNodeSent:    eng.interNodeSent.Load(),
		InterProcessSent: eng.interProcSent.Load(),
		Processed:        eng.processed.Load(),
		SinkProcessed:    eng.sinkProcessed.Load(),
		Migrations:       eng.migrations.Load(),
		Applies:          eng.applies.Load(),
		Acked:            eng.acked.Load(),
		LateAcked:        eng.lateAcked.Load(),
		FailedRoots:      eng.failedRoots.Load(),
		Replayed:         eng.replayed.Load(),
		Dropped:          eng.dropped.Load(),
		WorkerCrashes:    eng.workerCrashes.Load(),
		WorkerRestarts:   eng.workerRestarts.Load(),
		CtlCombined:      eng.ctlCombined.Load(),
		PoolHits:         poolHits,
		PoolMisses:       poolMisses,
		TraceSampled:     eng.tracedRoots.Load(),
		TraceSpanDropped: eng.traceSpanDropped(),
	}
}

// Sub returns the per-counter difference t - o.
func (t Totals) Sub(o Totals) Totals {
	return Totals{
		RootsEmitted:     t.RootsEmitted - o.RootsEmitted,
		TuplesSent:       t.TuplesSent - o.TuplesSent,
		InterNodeSent:    t.InterNodeSent - o.InterNodeSent,
		InterProcessSent: t.InterProcessSent - o.InterProcessSent,
		Processed:        t.Processed - o.Processed,
		SinkProcessed:    t.SinkProcessed - o.SinkProcessed,
		Migrations:       t.Migrations - o.Migrations,
		Applies:          t.Applies - o.Applies,
		Acked:            t.Acked - o.Acked,
		LateAcked:        t.LateAcked - o.LateAcked,
		FailedRoots:      t.FailedRoots - o.FailedRoots,
		Replayed:         t.Replayed - o.Replayed,
		Dropped:          t.Dropped - o.Dropped,
		WorkerCrashes:    t.WorkerCrashes - o.WorkerCrashes,
		WorkerRestarts:   t.WorkerRestarts - o.WorkerRestarts,
		CtlCombined:      t.CtlCombined - o.CtlCombined,
		PoolHits:         t.PoolHits - o.PoolHits,
		PoolMisses:       t.PoolMisses - o.PoolMisses,
		TraceSampled:     t.TraceSampled - o.TraceSampled,
		TraceSpanDropped: t.TraceSpanDropped - o.TraceSpanDropped,
	}
}

// InterNodeFraction is the fraction of transfers that crossed node
// boundaries (0 when nothing was sent) — the live analogue of the paper's
// inter-node traffic objective.
func (t Totals) InterNodeFraction() float64 {
	if t.TuplesSent == 0 {
		return 0
	}
	return float64(t.InterNodeSent) / float64(t.TuplesSent)
}

// PendingRoots reports how many anchored roots are outstanding right now
// (emitted, not yet acked or failed) across all spouts — the
// tuple-conservation gauge: with spouts done and failures replayed, it
// returns to 0 exactly when every root was accounted for.
func (eng *Engine) PendingRoots() int64 { return eng.pendingRoots.Load() }

// DrainLatency returns the end-to-end latency histogram accumulated since
// the last drain (spout emit → terminal bolt completion, milliseconds) and
// resets it for the next window.
func (eng *Engine) DrainLatency() *metrics.Histogram {
	return eng.latency.Drain()
}

// CompletionLatencySnapshot returns the cumulative root completion-latency
// histogram (first emit → ack, milliseconds; first-emit time survives
// replays). Anchored topologies only.
func (eng *Engine) CompletionLatencySnapshot() *metrics.Histogram {
	return eng.rootLat.Snapshot()
}

// LatencySnapshot returns the cumulative end-to-end latency histogram
// (never reset). Scrapers read this; DrainLatency's windowed resets are
// unaffected, so a concurrent scrape cannot lose benchmark samples.
func (eng *Engine) LatencySnapshot() *metrics.Histogram {
	return eng.latency.Snapshot()
}

// ExecutorStat is one executor's telemetry snapshot.
type ExecutorStat struct {
	ID topology.ExecutorID
	// Kind is "spout", "bolt", or "acker".
	Kind string
	// QueueLen and QueueCap describe the input queue in tuples: the count
	// charged to it and its bound, which QueueLen may overshoot by less
	// than one batch (both 0 for spouts and ackers, which have no queue).
	QueueLen int
	QueueCap int
	// Processed and Emitted are lifetime tuple counts.
	Processed int64
	Emitted   int64
	// ProcLatency is a snapshot of the per-tuple process-time histogram
	// in milliseconds (nil for spouts and ackers).
	ProcLatency *metrics.Histogram
}

// ExecutorStats snapshots every executor's gauges and counters, sorted by
// executor identity. It reads the routing snapshot and per-executor
// atomics only — no engine lock.
func (eng *Engine) ExecutorStats() []ExecutorStat {
	rt := eng.routes.Load()
	out := make([]ExecutorStat, 0, len(rt.byDense))
	for _, le := range rt.byDense {
		st := ExecutorStat{
			ID:        le.id,
			Processed: le.processed.Load(),
			Emitted:   le.emitted.Load(),
		}
		switch le.kind {
		case spoutExec:
			st.Kind = "spout"
		case boltExec:
			st.Kind = "bolt"
		default:
			st.Kind = "acker"
		}
		if le.in != nil {
			st.QueueLen = int(le.queued.Load())
			st.QueueCap = queueBound
		}
		if le.procLat != nil {
			st.ProcLatency = le.procLat.Snapshot()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Less(out[j].ID) })
	return out
}

// QueueSaturation reports the fraction of input queues whose depth is at
// or above frac of their tuple bound, plus the deepest queue depth in
// tuples — the backpressure signal health rules sample. It reads the
// routing snapshot only, so it is cheap enough for a 1 s sampler and never
// contends with Submit/Apply.
func (eng *Engine) QueueSaturation(frac float64) (saturated float64, maxDepth int) {
	rt := eng.routes.Load()
	queues, hot := 0, 0
	for _, le := range rt.byDense {
		if le.in == nil {
			continue
		}
		queues++
		depth := int(le.queued.Load())
		if depth > maxDepth {
			maxDepth = depth
		}
		if float64(depth) >= frac*queueBound {
			hot++
		}
	}
	if queues == 0 {
		return 0, 0
	}
	return float64(hot) / float64(queues), maxDepth
}

// EdgeStat is one directed executor pair's lifetime transfer count over
// one boundary class.
type EdgeStat struct {
	From, To topology.ExecutorID
	// Boundary is "local", "inter-process", or "inter-node" — the class
	// of the hop when the tuples were sent (an edge that straddled an
	// Apply reports one EdgeStat per class).
	Boundary string
	Tuples   int64
}

// hopNames maps hopKind to its exposition label.
var hopNames = [3]string{hopLocal: "local", hopInterProc: "inter-process", hopInterNode: "inter-node"}

// EdgeStats snapshots the non-zero per-edge counters, sorted by (from, to,
// boundary). Counts are lifetime cumulative; the monitor's traffic-matrix
// drains do not affect them.
func (eng *Engine) EdgeStats() []EdgeStat {
	m := eng.edges.Load()
	if m == nil {
		return nil
	}
	rt := eng.routes.Load()
	var out []EdgeStat
	for from := 0; from < m.n; from++ {
		for to := 0; to < m.n; to++ {
			ec := &m.counts[from*m.n+to]
			for hop, name := range hopNames {
				if c := ec.byHop[hop].Load(); c > 0 {
					out = append(out, EdgeStat{
						From:     rt.denseRev[from],
						To:       rt.denseRev[to],
						Boundary: name,
						Tuples:   c,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.From != b.From {
			return a.From.Less(b.From)
		}
		if a.To != b.To {
			return a.To.Less(b.To)
		}
		return a.Boundary < b.Boundary
	})
	return out
}

// PlacementEntry is one executor's current slot, for /debug/placement.
type PlacementEntry struct {
	Executor topology.ExecutorID `json:"executor"`
	Slot     cluster.SlotID      `json:"slot"`
}

// Placement snapshots the current executor→slot mapping from the routing
// snapshot (so it reflects an Apply the instant the new routes publish),
// sorted by executor identity.
func (eng *Engine) Placement() []PlacementEntry {
	rt := eng.routes.Load()
	out := make([]PlacementEntry, 0, len(rt.byDense))
	for dense, le := range rt.byDense {
		out = append(out, PlacementEntry{Executor: le.id, Slot: rt.slotOf[dense]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Executor.Less(out[j].Executor) })
	return out
}
