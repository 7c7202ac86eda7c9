package live

import (
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

// hopKind classifies a transfer by the boundary it crosses.
type hopKind int

const (
	hopLocal     hopKind = iota // same worker process: pass by reference
	hopInterProc                // different slots, same node: serialize
	hopInterNode                // different nodes: serialize + copy work
)

// delivery is one routed, costed batch of transfers to a single target
// queue awaiting enqueue. Tuples routed to the same executor within one
// emit cycle are appended here and later enqueued with a single channel
// operation, so a cycle pays one send per distinct target instead of one
// per tuple. The msgs slice comes from the engine's batch pool; ownership
// transfers to the receiver on a successful enqueue (see pool.go).
//
// A delivery whose target is not resident in this process never forms a
// batch: its tuples are encoded straight into wire, a frame under
// construction that the sending executor owns, and msgs stays nil. An
// engine that never crosses a process boundary pays one nil pointer for it.
type delivery struct {
	to   *liveExec
	hop  hopKind
	msgs []liveMsg
	wire *outFrame
}

// outFrame is the wire frame a delivery to a non-resident target builds,
// in a buffer its executor reuses from flush to flush (RemoteSink.Send
// only borrows the bytes). It is addressed to slot, the target's placement
// when it was routed — like a frame already on the wire, it chases a
// target that migrates meanwhile through the receiver's NotLocalError.
// sealed closes a plain frame a sampled tuple arrived behind: the traced
// frame opened after it takes everything that follows, which keeps the
// order and lets tracing-off fleets never emit a frameDataT.
type outFrame struct {
	dataFrame
	slot   cluster.SlotID
	sealed bool
}

// remote reports whether the delivery leaves as a wire frame.
func (d *delivery) remote() bool { return d.wire != nil }

// route resolves one logical emission to per-target deliveries, paying the
// sender-side boundary costs (serialization for remote hops, copy passes
// for inter-node hops). It returns the number of transfers appended (-1 if
// the stream is undeclared) and, for anchored emissions (root != 0), the
// XOR of the fresh edge IDs stamped on them — the ack protocol's
// contribution of this emission. Direct-grouping subscribers are skipped,
// as in the simulated engine.
//
// The routing snapshot is loaded once per emission and never mutated, so
// no engine lock is taken anywhere on this path and every target of one
// emission is resolved against a single consistent placement.
func (le *liveExec) route(out *[]delivery, stream string, vals tuple.Values, bornAt time.Time, root tuple.ID) (int, tuple.ID) {
	if stream == "" {
		stream = topology.DefaultStream
	}
	os := le.router.Stream(stream)
	if os == nil {
		return -1, 0
	}
	rt := le.eng.routes.Load()
	srcSlot := rt.slotOf[le.dense]
	size := tuple.SizeOf(vals)
	n := 0
	var xorAcc tuple.ID

	for ei := range os.Edges {
		e := &os.Edges[ei]
		var local []int
		if e.Edge.Grouping.Type == topology.LocalOrShuffleGrouping {
			local = le.localTasks(rt, srcSlot, e.Edge.Consumer)
		}
		for _, idx := range le.router.Targets(e, vals, local) {
			tgt := rt.executor(le.id.Topology, e.Edge.Consumer, idx)
			if tgt == nil || tgt.in == nil {
				continue
			}
			var eid tuple.ID
			if root != 0 {
				eid = le.newEdgeID()
				xorAcc ^= eid
			}
			le.appendDelivery(out, rt, tgt, srcSlot, stream, vals, size, bornAt, root, eid)
			n++
		}
	}
	return n, xorAcc
}

// routeDirect resolves an EmitDirect call; it returns the transfer's fresh
// edge ID (0 when unanchored) and whether a transfer was appended.
func (le *liveExec) routeDirect(out *[]delivery, consumer string, taskIndex int, stream string, vals tuple.Values, bornAt time.Time, root tuple.ID) (tuple.ID, bool) {
	if stream == "" {
		stream = topology.DefaultStream
	}
	if le.router.Stream(stream) == nil {
		return 0, false
	}
	top := le.app.Topology
	cons, ok := top.Component(consumer)
	if !ok || taskIndex < 0 || taskIndex >= cons.Parallelism {
		return 0, false
	}
	rt := le.eng.routes.Load()
	tgt := rt.executor(le.id.Topology, consumer, taskIndex)
	if tgt == nil || tgt.in == nil {
		return 0, false
	}
	var eid tuple.ID
	if root != 0 {
		eid = le.newEdgeID()
	}
	le.appendDelivery(out, rt, tgt, rt.slotOf[le.dense], stream, vals, tuple.SizeOf(vals), bornAt, root, eid)
	return eid, true
}

// appendDelivery builds one transfer, paying the sender-side cost of the
// boundary it crosses, and appends it to the target's batch (opening a
// new pooled batch for a target not yet seen since the last flush). Local
// transfers share the Values slice (tuples are immutable by contract);
// transfers to another slot of this process carry the payload encoded
// into a pooled buffer and the receiver decodes (and then recycles) it;
// transfers to another process are encoded into the executor's scratch
// and copied into the target's frame (appendWire).
func (le *liveExec) appendDelivery(out *[]delivery, rt *routeTable, tgt *liveExec, srcSlot cluster.SlotID, stream string, vals tuple.Values, size int, bornAt time.Time, root, edge tuple.ID) {
	dstSlot := rt.slotOf[tgt.dense]
	msg := liveMsg{
		tup: tuple.Tuple{
			Root:         root,
			Edge:         edge,
			Stream:       stream,
			SrcComponent: le.comp.Name,
			SrcTask:      le.id.Index,
			Size:         size,
		},
		bornAt: bornAt,
		from:   le.dense,
	}
	if le.eng.sampledRoot(root) {
		// Sampled tuple: thread the producer's span identity and the
		// hand-off instant through the anchor chain (tracing.go). The
		// unsampled path pays one predictable branch and nothing else.
		msg.parentSpan = le.curParent
		msg.sentAt = time.Now().UnixNano()
	}
	hop := hopLocal
	switch {
	case srcSlot == dstSlot:
	case srcSlot.Node == dstSlot.Node:
		hop = hopInterProc
	default:
		hop = hopInterNode
	}
	remote := !rt.local[tgt.dense]
	if hop == hopLocal && !remote {
		msg.tup.Values = vals
	} else {
		var enc []byte
		if remote {
			enc, msg.extras = encodeValuesInto(le.encScratch[:0], vals)
			le.encScratch = enc
		} else {
			enc, msg.extras = encodeValuesInto(le.eng.encPool.get(), vals)
			msg.enc = enc
		}
		if hop == hopInterNode {
			// Kernel/NIC copy work: extra passes over the wire bytes.
			for i := 0; i < le.eng.cfg.InterNodeCopies; i++ {
				for _, b := range enc {
					le.scratch ^= b
				}
			}
			// Per-message network-stack cost, burned on the sender's goroutine.
			// Emitters run inside the executor's timed NextTuple/Execute window,
			// so this also shows up in the monitor's load measurements.
			if wc := le.eng.cfg.WireCost; wc > 0 {
				for t0 := time.Now(); time.Since(t0) < wc; { //nolint:staticcheck // busy-wait is the point
				}
			}
		}
		if remote {
			le.appendWire(out, tgt, hop, dstSlot, &msg, enc)
			return
		}
	}
	// Batch with an existing delivery to the same queue. Hop kinds are
	// matched too: two emissions of one cycle may straddle an Apply and
	// classify the same target differently.
	for i := range *out {
		if b := &(*out)[i]; b.to == tgt && b.hop == hop && !b.remote() {
			b.msgs = append(b.msgs, msg)
			return
		}
	}
	*out = append(*out, delivery{to: tgt, hop: hop, msgs: append(le.eng.msgPool.get(), msg)})
}

// appendWire appends one transfer to the open frame for a non-resident
// target, opening one (in a spare buffer of this executor) when there is
// none. A payload holding by-reference extras cannot cross a process
// boundary: the transfer is dropped here, and an anchored root recovers
// by timeout + replay.
func (le *liveExec) appendWire(out *[]delivery, tgt *liveExec, hop hopKind, slot cluster.SlotID, m *liveMsg, enc []byte) {
	if len(m.extras) > 0 {
		le.eng.dropped.Add(1)
		return
	}
	sampled := m.sentAt != 0
	for i := range *out {
		d := &(*out)[i]
		if d.to != tgt || d.hop != hop || !d.remote() || d.wire.sealed {
			continue
		}
		if sampled && !d.wire.spans {
			d.wire.sealed = true
			break
		}
		d.wire.add(m, enc)
		return
	}
	var f *outFrame
	if n := len(le.frames); n > 0 {
		f, le.frames = le.frames[n-1], le.frames[:n-1]
	} else {
		f = &outFrame{dataFrame: dataFrame{buf: make([]byte, 0, frameBufCap)}}
	}
	f.dataFrame, f.slot, f.sealed = openDataFrame(f.buf, tgt.id, sampled), slot, false
	f.add(m, enc)
	*out = append(*out, delivery{to: tgt, hop: hop, wire: f})
}

// reclaim takes a sent (or abandoned) delivery's frame back: Send only
// borrowed its bytes. One that a fat tuple grew past frameBufMax is left
// to the GC.
func (le *liveExec) reclaim(d *delivery) {
	if cap(d.wire.buf) <= frameBufMax {
		le.frames = append(le.frames, d.wire)
	}
	d.wire = nil
}

// localTasks lists the consumer's task indexes resident in the sender's
// slot — LocalOrShuffleGrouping's locality set, read from the routing
// snapshot — into the executor's scratch.
func (le *liveExec) localTasks(rt *routeTable, srcSlot cluster.SlotID, consumer string) []int {
	local := le.localScratch[:0]
	for _, peer := range rt.groups[srcSlot] {
		if peer.id.Component == consumer {
			local = append(local, peer.id.Index)
		}
	}
	le.localScratch = local
	return local
}

// recycleBatch returns an un-enqueued delivery batch and its encode
// buffers to the pools — the drop paths' side of the ownership contract.
func (eng *Engine) recycleBatch(msgs []liveMsg) {
	eng.releaseInput(inBatch{msgs: msgs}, 0)
}

// releaseInput returns a queued batch to the pools once msgs[:from] were
// processed: a slab-backed batch (Ingest) gives up its slab, which every
// enc aliases; a batch built in this process gives up the pooled encode
// buffers of the messages not yet processed (process already returned the
// others).
func (eng *Engine) releaseInput(b inBatch, from int) {
	if b.slab != nil {
		eng.slabPool.put(b.slab)
	} else {
		for i := from; i < len(b.msgs); i++ {
			if enc := b.msgs[i].enc; enc != nil {
				eng.encPool.put(enc)
			}
		}
	}
	eng.msgPool.put(b.msgs)
}

// discard drops a delivery that will never be sent, counting its tuples.
func (le *liveExec) discard(d *delivery) {
	if d.remote() {
		le.eng.dropped.Add(int64(d.wire.n))
		le.reclaim(d)
		return
	}
	le.eng.dropped.Add(int64(len(d.msgs)))
	le.eng.recycleBatch(d.msgs)
	d.msgs = nil
}

// deliver enqueues one routed batch, blocking while the target queue is at
// its tuple bound (backpressure, queue.go), or hands a wire-bound one to
// the remote sink. It reports false when the engine is stopping or the
// sending incarnation was killed (die). Batches for a dead executor are
// dropped on the floor — anchored roots recover via timeout + replay — so
// senders never wedge on a crashed worker's full queue. The transfers are
// counted only once enqueued, so the statistics match what receivers will
// actually observe. deliver owns d.msgs on every outcome: a successful
// channel send hands it to the receiver, every other path recycles it.
// Runs on le's goroutine (the frame buffers are the executor's own).
func (le *liveExec) deliver(d *delivery, die <-chan struct{}) bool {
	eng := le.eng
	if d.remote() {
		eng.sendRemoteData(le.dense, d, d.wire.slot, d.wire.bytes(), int64(d.wire.n))
		le.reclaim(d)
		return true
	}
	n := int64(len(d.msgs))
	if n == 0 {
		return true
	}
	if rt := eng.routes.Load(); !rt.local[d.to.dense] {
		// The target left this process after the batch was built (an Apply
		// between the emission and this flush): the batch leaves as an
		// encoded frame, as one stranded in the departed queue would.
		frame, n := eng.encodeStranded(d.to.id, inBatch{msgs: d.msgs})
		d.msgs = nil
		eng.sendRemoteData(le.dense, d, rt.slotOf[d.to.dense], frame, n)
		return true
	}
	if d.to.dead.Load() {
		eng.dropped.Add(n)
		eng.recycleBatch(d.msgs)
		return true
	}
	eng.pending.Add(n)
	if !d.to.admit(n, die) {
		eng.pending.Add(-n)
		eng.recycleBatch(d.msgs)
		return false
	}
	d.to.in <- inBatch{msgs: d.msgs}
	eng.countSent(le.dense, d, n)
	return true
}

// countSent accounts n transfers of a delivery as sent by the executor
// with dense index from: lifetime totals, the per-edge matrix and the
// monitor's traffic window.
func (eng *Engine) countSent(from int, d *delivery, n int64) {
	eng.tuplesSent.Add(n)
	switch d.hop {
	case hopInterNode:
		eng.interNodeSent.Add(n)
	case hopInterProc:
		eng.interProcSent.Add(n)
	}
	if m := eng.edges.Load(); m != nil {
		m.counts[from*m.n+d.to.dense].byHop[d.hop].Add(n)
	}
	eng.traffic.Add(from, d.to.dense, float64(n))
}
