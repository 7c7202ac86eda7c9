package live

import (
	"time"

	"tstorm/internal/tracing"
	"tstorm/internal/tuple"
)

// This file is the live engine's side of the sampled tuple tracing layer
// (internal/tracing): a spout root is sampled at registration time by one
// AND against a power-of-two mask on its random 64-bit root ID, sampled
// tuples carry the producer's span identity plus hand-off instant in two
// liveMsg value fields (and across the frame codec via frameDataT), and
// the three span shapes are recorded at their natural owners — the root
// span where flushAnchored registers the root, the execute span where
// process finishes a bolt's Execute, the ack span where drainAckEvents
// applies the completion. Spans land in per-executor lock-free rings; the
// in-process engine drains them into its own collector on a background
// loop, while a distributed worker engine (LocalSlots set) leaves the
// rings to the dist layer's heartbeat, which ships them to the driver's
// collector. Either drainer runs on a period and, ahead of it, whenever an
// executor has pushed half a ring of spans since it last asked (SpansReady):
// the period sets how stale a quiet ring may get, the load how often a busy
// one is emptied, so a faster fleet ships more often instead of dropping.
//
// Unsampled tuples — all of them, at the default 1/1024 rate, in any
// benchmark window that matters — pay exactly one predictable branch per
// hop and allocate nothing: ci.sh gates BenchmarkEmitTraced at ≤1
// alloc/op to keep it that way.

// spanRingCap bounds each executor's unread sampled spans; overflow drops
// the span (counted in Totals.TraceSpanDropped), never blocks.
const spanRingCap = 256

// spanDrainPeriod is the in-process collector's ring-drain cadence.
const spanDrainPeriod = 50 * time.Millisecond

// sampledRoot reports whether a root ID falls in the sampled subset. The
// zero root (unanchored emissions) never does.
func (eng *Engine) sampledRoot(root tuple.ID) bool {
	return eng.traceRate != 0 && tracing.Sampled(uint64(root), eng.traceMask)
}

// TraceCollector returns the engine's tuple-tree collector — nil when
// tracing is off or when this engine is a distributed worker exporting
// its spans to the driver.
func (eng *Engine) TraceCollector() *tracing.Collector { return eng.collector }

// DrainSpans empties every executor's span ring. Single consumer: the
// in-process engine's collect loop or the dist worker's heartbeat loop,
// never both (the collector is only created when LocalSlots is unset).
func (eng *Engine) DrainSpans() []tracing.Span {
	rt := eng.routes.Load()
	var out []tracing.Span
	for _, le := range rt.byDense {
		if le.spans != nil {
			out = le.spans.Drain(out)
		}
	}
	return out
}

// traceSpanDropped sums the rings' overflow counters.
func (eng *Engine) traceSpanDropped() int64 {
	rt := eng.routes.Load()
	var n int64
	for _, le := range rt.byDense {
		if le.spans != nil {
			n += le.spans.Dropped()
		}
	}
	return n
}

// SpansReady is signalled when some executor's ring has taken half its
// capacity in spans since that executor last signalled. DrainSpans'
// caller selects on it beside its period.
func (eng *Engine) SpansReady() <-chan struct{} { return eng.spanReady }

// pushSpan records one span and, every half ring of them, asks the drainer
// to come now: an executor that fills its ring faster than the drain
// period would otherwise drop the overflow.
func (le *liveExec) pushSpan(sp tracing.Span) {
	le.spans.Push(sp)
	if le.spanSeq.Add(1)%(spanRingCap/2) == 0 {
		select {
		case le.eng.spanReady <- struct{}{}:
		default: // a request is already waiting
		}
	}
}

// collectSpans is the in-process engine's drain loop: rings → collector.
// It sweeps on every tick, spans or not, so trees settle after the
// traffic stops.
func (eng *Engine) collectSpans() {
	defer eng.wg.Done()
	tk := time.NewTicker(spanDrainPeriod)
	defer tk.Stop()
	for {
		select {
		case <-eng.stopCh:
			eng.collector.Add(eng.DrainSpans())
			return
		case <-tk.C:
		case <-eng.spanReady:
		}
		eng.collector.Add(eng.DrainSpans())
		eng.collector.Sweep(time.Now())
	}
}

// recordRoot pushes the spout-side root span. emitAt is the FIRST emit
// instant (replays inherit it), so the tree's completion latency matches
// the engine's rootLat metric.
func (le *liveExec) recordRoot(root tuple.ID, emitAt time.Time) {
	le.eng.tracedRoots.Add(1)
	le.pushSpan(tracing.Span{
		Root: uint64(root), Self: uint64(root), Kind: tracing.KindRoot,
		Topology: le.id.Topology, Component: le.id.Component, Task: le.id.Index,
		EmitAt: emitAt.UnixNano(),
	})
}

// recordExecute pushes one bolt's execute span, classifying the inbound
// hop against the current route snapshot.
func (le *liveExec) recordExecute(m *liveMsg, t0 time.Time, busy time.Duration) {
	rt := le.eng.routes.Load()
	le.pushSpan(tracing.Span{
		Root: uint64(m.tup.Root), Self: uint64(m.tup.Edge), Parent: m.parentSpan,
		Kind:     tracing.KindExecute,
		Topology: le.id.Topology, Component: le.id.Component, Task: le.id.Index,
		Boundary: le.classifyHop(rt, m.from),
		SentAt:   m.sentAt, StartAt: t0.UnixNano(), EndAt: t0.Add(busy).UnixNano(),
	})
}

// recordAck pushes the spout-side completion span; at is the instant the
// acker observed the tree complete (carried with the ack event).
func (le *liveExec) recordAck(root tuple.ID, at time.Time) {
	le.pushSpan(tracing.Span{
		Root: uint64(root), Self: uint64(root), Kind: tracing.KindAck,
		Topology: le.id.Topology, Component: le.id.Component, Task: le.id.Index,
		AckAt: at.UnixNano(),
	})
}

// classifyHop labels the boundary a tuple crossed to reach this executor.
// In the in-process engine a cross-slot hop on one node is "inter-slot"
// (emulated serialization); in a distributed worker the producer's slot is
// non-local, so the same hop crossed a real process and is
// "inter-process". Cross-node hops are "inter-node" either way.
func (le *liveExec) classifyHop(rt *routeTable, from int) string {
	if from < 0 || from >= len(rt.slotOf) {
		return tracing.BoundaryLocal
	}
	src, dst := rt.slotOf[from], rt.slotOf[le.dense]
	switch {
	case src == dst:
		return tracing.BoundaryLocal
	case src.Node == dst.Node:
		if rt.local[from] {
			return tracing.BoundaryInterSlot
		}
		return tracing.BoundaryInterProcess
	default:
		return tracing.BoundaryInterNode
	}
}
