package live

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

// This file is the live engine's process-boundary surface, used by the
// distributed backend (internal/dist): a worker process runs a restricted
// engine (Config.LocalSlots names the slots whose executors execute here;
// everything else is a routing proxy) and transfers that resolve to a
// non-local slot leave through Config.Remote as self-describing binary
// frames instead of a channel send. The frame body reuses the tuple codec
// (codec.go), so the serialization cost the in-process engine emulates is
// exactly the cost the distributed engine pays for real.
//
// Frames may arrive from an untrusted socket, so the decoder validates
// every length against the bytes that remain before allocating or slicing
// — malformed input returns an error (the dist layer logs it and closes
// the connection), never a panic.
//
// One ownership rule covers both directions of the hop: RemoteSink.Send
// and Engine.Ingest only BORROW the slice they are handed, for the
// duration of the call. A sender therefore builds its frames in buffers
// it reuses the moment Send returns, and a receiver may hand Ingest bytes
// straight out of its read buffer; whoever needs the bytes longer copies
// them (Ingest does, once, into a pooled slab the decoded batch owns).

// RemoteSink carries frames to the worker process owning a slot. Send
// borrows frame until it returns and reports false when the frame could
// not be handed to the peer (unknown address); the caller counts the
// batch as dropped and anchored roots recover via timeout + replay. A sink
// that accepts a data frame and only later fails to deliver it hands the
// frame to Engine.Shed.
type RemoteSink interface {
	Send(to cluster.SlotID, frame []byte) bool
}

// NotLocalError reports that an ingested frame's target executor lives in
// another worker process — the §IV-D generation-tagged dispatch case: the
// sender routed against a pre-reassignment placement, and the receiver
// answers with the slot it currently believes owns the executor so the
// dist layer can forward the frame (bounded by its hop budget).
type NotLocalError struct {
	Slot cluster.SlotID
}

func (e *NotLocalError) Error() string {
	return fmt.Sprintf("live: target executor is not local (now at %s)", e.Slot)
}

// Frame kinds.
const (
	frameData = 1 // data tuples for a bolt's input queue
	frameCtl  = 2 // init/ack control messages for an acker
	frameAck  = 3 // completion events for a spout's mailbox
	// frameDataT is a data frame carrying the tuple-tracing extension: a
	// flags byte after the header, then (for flagSpans) a parent-span ID
	// and hand-off instant appended to every message. Version gating is by
	// kind: a decoder predating tracing hits its unknown-frame-kind error
	// and drops the connection instead of misparsing, and senders only use
	// this kind for batches that actually contain a sampled tuple, so
	// tracing-off fleets never emit it.
	frameDataT = 4
)

// flagSpans marks a frameDataT whose messages carry span fields. Unknown
// flag bits are rejected at decode, reserving them for future extensions.
const flagSpans = 1

// maxFrameItems caps the per-frame item count a decoder will believe
// before the per-item length checks kick in, bounding the initial slice
// allocation for adversarial counts (each item costs many bytes, so real
// frames sit far below this).
const maxFrameItems = 1 << 20

func appendFrameString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// frameReader walks an untrusted frame with bounds-checked reads.
type frameReader struct {
	buf []byte
	pos int
	err error
}

func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("live: "+format, args...)
	}
}

func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, w := binary.Uvarint(r.buf[r.pos:])
	if w <= 0 {
		r.fail("truncated uvarint at %d", r.pos)
		return 0
	}
	r.pos += w
	return v
}

func (r *frameReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail("truncated byte at %d", r.pos)
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *frameReader) uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.pos < 8 {
		r.fail("truncated uint64 at %d", r.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

// bytes returns a length-prefixed byte run aliasing the frame (capacity
// clipped to the run). The length is validated against the remaining
// input before any conversion to int, so adversarial 64-bit lengths
// cannot wrap negative or over-read.
func (r *frameReader) bytes() []byte {
	l := r.uvarint()
	if r.err != nil {
		return nil
	}
	if l > uint64(len(r.buf)-r.pos) {
		r.fail("truncated %d-byte run at %d", l, r.pos)
		return nil
	}
	out := r.buf[r.pos : r.pos+int(l) : r.pos+int(l)]
	r.pos += int(l)
	return out
}

// name reads a length-prefixed string that is, in every well-formed
// frame, a topology, component or stream name: equal to prev (the same
// field of the previous message — true for every message of a frame in
// practice) or a key of names, and then returned without allocating.
func (r *frameReader) name(prev string, names map[string]string) string {
	b := r.bytes()
	if string(b) == prev {
		return prev
	}
	if s, ok := names[string(b)]; ok {
		return s
	}
	return string(b)
}

// count reads an item count and sanity-bounds it: each item occupies at
// least minItemBytes, so a count larger than remaining/minItemBytes is
// corrupt and rejected before anything is allocated from it.
func (r *frameReader) count(minItemBytes int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > maxFrameItems || n > uint64((len(r.buf)-r.pos)/minItemBytes+1) {
		r.fail("frame claims %d items in %d bytes", n, len(r.buf)-r.pos)
		return 0
	}
	return int(n)
}

// wireFrame is one decoded inter-process frame. Its batch slices come from
// the engine's pools; the enc field of every data message aliases slab,
// the pooled copy of the frame that the batch owns from here on.
type wireFrame struct {
	kind byte
	to   topology.ExecutorID
	data []liveMsg
	slab []byte
	ctl  []ctlMsg
	acks []ackEvent
}

// release returns to the pools whatever the frame drew from them and
// still holds — everything, on the decode-error and undeliverable-frame
// paths.
func (f *wireFrame) release(eng *Engine) {
	eng.releaseInput(inBatch{msgs: f.data, slab: f.slab}, 0)
	eng.ctlPool.put(f.ctl)
	eng.ackPool.put(f.acks)
}

func appendFrameHeader(buf []byte, kind byte, to topology.ExecutorID) []byte {
	buf = append(buf, kind)
	buf = appendFrameString(buf, to.Topology)
	buf = appendFrameString(buf, to.Component)
	buf = binary.AppendUvarint(buf, uint64(to.Index))
	return buf
}

func unixNanoOrZero(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// dataFrame is a frameData / frameDataT under construction in a buffer
// its caller owns: opened for one target, grown a message at a time,
// finished by bytes. Both encoders of data frames go through it — the
// router's per-tuple path (appendWire) and encodeDataFrame.
type dataFrame struct {
	buf     []byte
	countAt int  // offset of the fixed32 message count
	n       int  // messages appended
	spans   bool // frameDataT: span fields on every message
}

// openDataFrame starts a data frame for one executor in buf[:0]. A frame
// opened with spans leaves as a frameDataT; a plain one keeps the PR 6
// frameData format byte for byte.
func openDataFrame(buf []byte, to topology.ExecutorID, spans bool) dataFrame {
	if spans {
		buf = append(appendFrameHeader(buf[:0], frameDataT, to), flagSpans)
	} else {
		buf = appendFrameHeader(buf[:0], frameData, to)
	}
	countAt := len(buf)
	return dataFrame{buf: append(buf, 0, 0, 0, 0), countAt: countAt, spans: spans}
}

// add appends one message: m's header fields and enc, its encoded values.
func (f *dataFrame) add(m *liveMsg, enc []byte) {
	buf := binary.LittleEndian.AppendUint64(f.buf, uint64(m.tup.Root))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.tup.Edge))
	buf = appendFrameString(buf, m.tup.Stream)
	buf = appendFrameString(buf, m.tup.SrcComponent)
	buf = binary.AppendUvarint(buf, uint64(m.tup.SrcTask))
	buf = binary.AppendUvarint(buf, uint64(m.tup.Size))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(unixNanoOrZero(m.bornAt)))
	buf = binary.AppendUvarint(buf, uint64(m.from))
	if f.spans {
		buf = binary.LittleEndian.AppendUint64(buf, m.parentSpan)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.sentAt))
	}
	buf = binary.AppendUvarint(buf, uint64(len(enc)))
	f.buf = append(buf, enc...)
	f.n++
}

// bytes patches the message count in and returns the finished frame.
func (f *dataFrame) bytes() []byte {
	binary.LittleEndian.PutUint32(f.buf[f.countAt:], uint32(f.n))
	return f.buf
}

// encodeDataFrame serializes a routed batch for one remote executor — the
// stranded-batch path (a batch built for a resident target that a
// migration took away before it was enqueued or processed); tuples routed
// to a non-resident target are encoded straight into their frame by
// appendWire and never form a batch. Messages whose payload holds
// by-reference extras cannot cross a process boundary and are skipped;
// the second return value counts them so the caller can account the drop.
// Messages still carrying in-memory values are encoded here. A batch
// containing at least one sampled tuple (non-zero sentAt) leaves as a
// frameDataT with span fields on every message.
func encodeDataFrame(to topology.ExecutorID, msgs []liveMsg) (frame []byte, skipped int64) {
	traced := false
	for i := range msgs {
		if msgs[i].sentAt != 0 {
			traced = true
			break
		}
	}
	f := openDataFrame(make([]byte, 0, 64+64*len(msgs)), to, traced)
	for i := range msgs {
		m := &msgs[i]
		enc, extras := m.enc, m.extras
		if enc == nil {
			enc, extras = encodeValues(m.tup.Values)
		}
		if len(extras) > 0 {
			skipped++
			continue
		}
		f.add(m, enc)
	}
	return f.bytes(), skipped
}

// appendCtlFrame encodes a control batch for a remote acker into buf[:0].
func appendCtlFrame(buf []byte, to topology.ExecutorID, msgs []ctlMsg) []byte {
	buf = appendFrameHeader(buf[:0], frameCtl, to)
	buf = binary.AppendUvarint(buf, uint64(len(msgs)))
	for _, m := range msgs {
		buf = append(buf, byte(m.kind))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.root))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.xor))
		buf = binary.AppendUvarint(buf, uint64(m.spoutDense))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(unixNanoOrZero(m.emitAt)))
	}
	return buf
}

func encodeCtlFrame(to topology.ExecutorID, msgs []ctlMsg) []byte {
	return appendCtlFrame(make([]byte, 0, 64+32*len(msgs)), to, msgs)
}

// appendAckFrame encodes completion events for a remote spout into buf[:0].
func appendAckFrame(buf []byte, to topology.ExecutorID, evs []ackEvent) []byte {
	buf = appendFrameHeader(buf[:0], frameAck, to)
	buf = binary.AppendUvarint(buf, uint64(len(evs)))
	for _, ev := range evs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.root))
		late := byte(0)
		if ev.late {
			late = 1
		}
		buf = append(buf, late)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(unixNanoOrZero(ev.at)))
	}
	return buf
}

// decodeDataMsgs parses the shared data-message body of frameData and
// frameDataT into f.data. spans selects the frameDataT/flagSpans layout,
// where each message carries its producer's span ID and hand-off instant
// between the from field and the payload. The payloads are not copied:
// every enc aliases r.buf.
func decodeDataMsgs(r *frameReader, f *wireFrame, names map[string]string, spans bool) error {
	if len(r.buf)-r.pos < 4 {
		return fmt.Errorf("live: truncated data-frame count at %d", r.pos)
	}
	n := binary.LittleEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	// Every data message occupies ≥ 21 bytes (two fixed u64s, a fixed
	// born instant minus overlap with varints); use a conservative floor.
	if n > maxFrameItems || n > uint32((len(r.buf)-r.pos)/21+1) {
		return fmt.Errorf("live: data frame claims %d messages in %d bytes", n, len(r.buf)-r.pos)
	}
	f.data = slices.Grow(f.data, int(n))
	var stream, src string
	for i := uint32(0); i < n; i++ {
		f.data = append(f.data, liveMsg{})
		m := &f.data[len(f.data)-1]
		m.tup.Root = tuple.ID(r.uint64())
		m.tup.Edge = tuple.ID(r.uint64())
		stream = r.name(stream, names)
		src = r.name(src, names)
		m.tup.Stream, m.tup.SrcComponent = stream, src
		m.tup.SrcTask = int(r.uvarint())
		m.tup.Size = int(r.uvarint())
		if born := int64(r.uint64()); born != 0 {
			m.bornAt = time.Unix(0, born)
		}
		m.from = int(r.uvarint())
		if spans {
			m.parentSpan = r.uint64()
			m.sentAt = int64(r.uint64())
		}
		m.enc = r.bytes()
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

// decodeHeader reads a frame's kind and target executor from untrusted
// bytes, leaving r at the body. It is all Ingest needs to tell a frame it
// will only forward or refuse from one it will enqueue. names is the
// routing snapshot's name table.
func (f *wireFrame) decodeHeader(r *frameReader, names map[string]string) error {
	f.kind = r.byte()
	f.to.Topology = r.name("", names)
	f.to.Component = r.name("", names)
	f.to.Index = int(r.uvarint())
	return r.err
}

// decodeBody parses the rest of the frame r holds into f, drawing its
// batch slice (and, for data frames, the slab the frame is copied into
// first) from the engine's pools. r.buf is only read. Whatever the
// outcome, f holds what was drawn: the caller releases it.
func (eng *Engine) decodeBody(f *wireFrame, r *frameReader, names map[string]string) error {
	switch f.kind {
	case frameData, frameDataT:
		// The messages alias what they are decoded from, and r.buf is only
		// borrowed: the batch gets its own copy, once, whole.
		f.slab = append(eng.slabPool.get(), r.buf...)
		r.buf = f.slab
		spans := false
		if f.kind == frameDataT {
			flags := r.byte()
			if r.err != nil {
				return r.err
			}
			if flags&^byte(flagSpans) != 0 {
				return fmt.Errorf("live: unknown data-frame flags %#x", flags)
			}
			spans = flags&flagSpans != 0
		}
		f.data = eng.msgPool.get()
		if err := decodeDataMsgs(r, f, names, spans); err != nil {
			return err
		}
	case frameCtl:
		n := r.count(26)
		f.ctl = eng.ctlPool.get()
		for i := 0; i < n; i++ {
			var m ctlMsg
			m.kind = ctlKind(r.byte())
			if m.kind != ctlInit && m.kind != ctlAck {
				return fmt.Errorf("live: unknown ctl kind %d", m.kind)
			}
			m.root = tuple.ID(r.uint64())
			m.xor = tuple.ID(r.uint64())
			m.spoutDense = int(r.uvarint())
			if at := int64(r.uint64()); at != 0 {
				m.emitAt = time.Unix(0, at)
			}
			if r.err != nil {
				return r.err
			}
			f.ctl = append(f.ctl, m)
		}
	case frameAck:
		n := r.count(17)
		f.acks = eng.ackPool.get()
		for i := 0; i < n; i++ {
			var ev ackEvent
			ev.root = tuple.ID(r.uint64())
			ev.late = r.byte() == 1
			if at := int64(r.uint64()); at != 0 {
				ev.at = time.Unix(0, at)
			}
			if r.err != nil {
				return r.err
			}
			f.acks = append(f.acks, ev)
		}
	default:
		return fmt.Errorf("live: unknown frame kind %d", f.kind)
	}
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.buf) {
		return fmt.Errorf("live: %d trailing bytes after frame", len(r.buf)-r.pos)
	}
	return nil
}

// Ingest accepts one frame received from a peer worker process and
// dispatches it to the target executor's queue. buf is borrowed for the
// duration of the call only — the caller may overwrite it the moment
// Ingest returns (a data frame is copied once into a pooled slab that
// travels with the decoded batch; its values are still decoded by the
// executor, inside its timed window). A decode failure returns the error
// (the caller should drop the connection); a structurally valid frame
// whose target executor is not resident here returns a *NotLocalError
// naming the slot this engine currently routes the executor to, so the
// dist layer can forward it — decided on the header alone, so a frame that
// is only passing through is neither copied nor decoded here.
func (eng *Engine) Ingest(buf []byte) error {
	rt := eng.routes.Load()
	var f wireFrame
	r := &frameReader{buf: buf}
	if err := f.decodeHeader(r, rt.names); err != nil {
		return err
	}
	le := rt.executor(f.to.Topology, f.to.Component, f.to.Index)
	if le == nil {
		return fmt.Errorf("live: frame for unknown executor %v", f.to)
	}
	if !rt.local[le.dense] {
		return &NotLocalError{Slot: rt.slotOf[le.dense]}
	}
	// Whatever is not handed to the executor below goes back to the pools.
	defer f.release(eng)
	if err := eng.decodeBody(&f, r, rt.names); err != nil {
		return err
	}
	switch f.kind {
	case frameData, frameDataT:
		if le.in == nil {
			return fmt.Errorf("live: data frame for queueless executor %v", f.to)
		}
		n := int64(len(f.data))
		if n == 0 {
			return nil
		}
		if le.dead.Load() {
			eng.dropped.Add(n)
			return nil
		}
		eng.pending.Add(n)
		if !le.admit(n, nil) {
			eng.pending.Add(-n)
			return nil
		}
		le.in <- inBatch{msgs: f.data, slab: f.slab}
		f.data, f.slab = nil, nil
	case frameCtl:
		if le.ctl == nil {
			return fmt.Errorf("live: ctl frame for non-acker executor %v", f.to)
		}
		if len(f.ctl) == 0 {
			return nil
		}
		if le.dead.Load() {
			eng.dropped.Add(int64(len(f.ctl)))
			return nil
		}
		select {
		case le.ctl <- f.ctl:
			f.ctl = nil
		case <-eng.stopCh:
		}
	case frameAck:
		if le.kind != spoutExec {
			return fmt.Errorf("live: ack frame for non-spout executor %v", f.to)
		}
		if len(f.acks) == 0 {
			return nil
		}
		le.postAcks(f.acks)
	}
	return nil
}

// FrameTuples reports how many tuples a frame carries: the message count
// of a data frame, 0 for a control or completion frame and for bytes that
// do not parse. It reads the header and the count alone, so a transport
// can account a frame in tuples without decoding it.
func FrameTuples(frame []byte) int {
	var f wireFrame
	r := &frameReader{buf: frame}
	if f.decodeHeader(r, nil) != nil || (f.kind != frameData && f.kind != frameDataT) {
		return 0
	}
	if f.kind == frameDataT {
		r.byte() // flags
	}
	if r.err != nil || len(r.buf)-r.pos < 4 {
		return 0
	}
	return int(binary.LittleEndian.Uint32(r.buf[r.pos:]))
}

// Shed takes a data frame that Config.Remote accepted, but then could not
// deliver after all (its writer shed it), back out of the traffic window
// the monitor drains, so Algorithm 1 is not shown traffic that never
// arrived. Only traffic this process counted is taken back: the frame's
// producer — every message of a frame has the same one — must execute
// here. The lifetime totals and edge counters keep counting what the sink
// accepted; the transport's own drop counter explains the difference.
func (eng *Engine) Shed(frame []byte) {
	rt := eng.routes.Load()
	var f wireFrame
	r := &frameReader{buf: frame}
	defer f.release(eng)
	if f.decodeHeader(r, rt.names) != nil || eng.decodeBody(&f, r, rt.names) != nil || len(f.data) == 0 {
		return
	}
	to, from := rt.executor(f.to.Topology, f.to.Component, f.to.Index), f.data[0].from
	if to == nil || from < 0 || from >= len(rt.local) || !rt.local[from] {
		return
	}
	eng.traffic.Add(from, to.dense, -float64(len(f.data)))
}

// remoteSend pushes an encoded frame toward the owner of a slot; a false
// return means the dist layer could not deliver it.
func (eng *Engine) remoteSend(to cluster.SlotID, frame []byte) bool {
	if eng.cfg.Remote == nil {
		return false
	}
	return eng.cfg.Remote.Send(to, frame)
}

// sendRemoteData ships one data frame of n tuples across the process
// boundary and accounts it exactly as deliver does for local enqueues
// (the sender owns all traffic counting, so per-edge statistics are
// consistent across the fleet). An undeliverable frame counts as dropped.
// The frame is only lent to the sink: the caller reuses it on return.
func (eng *Engine) sendRemoteData(from int, d *delivery, slot cluster.SlotID, frame []byte, n int64) {
	if n <= 0 {
		return
	}
	if !eng.remoteSend(slot, frame) {
		eng.dropped.Add(n)
		return
	}
	eng.countSent(from, d, n)
}

// encodeStranded turns a batch that can no longer be enqueued here into
// its frame and recycles it (the encode copies everything out),
// returning how many messages the frame holds; the by-reference ones
// that cannot cross are counted as dropped.
func (eng *Engine) encodeStranded(to topology.ExecutorID, b inBatch) (frame []byte, n int64) {
	frame, skipped := encodeDataFrame(to, b.msgs)
	n = int64(len(b.msgs)) - skipped
	eng.releaseInput(b, 0)
	eng.dropped.Add(skipped)
	return frame, n
}

// forwardStranded re-ships batches that landed in a non-resident
// executor's local queue — senders holding a pre-migration routing
// snapshot, or frames that arrived while the handoff was in flight — to
// the slot that owns the executor now. Runs on the remote pump goroutine.
func (eng *Engine) forwardStranded(le *liveExec, batch inBatch) {
	rt := eng.routes.Load()
	frame, n := eng.encodeStranded(le.id, batch)
	if n <= 0 {
		return
	}
	if !rt.local[le.dense] && eng.remoteSend(rt.slotOf[le.dense], frame) {
		return
	}
	eng.dropped.Add(n)
}

func (eng *Engine) forwardStrandedCtl(le *liveExec, batch []ctlMsg) {
	rt := eng.routes.Load()
	sent := !rt.local[le.dense] && eng.remoteSend(rt.slotOf[le.dense], encodeCtlFrame(le.id, batch))
	if !sent {
		eng.dropped.Add(int64(len(batch)))
	}
	eng.ctlPool.put(batch)
}

// pumpRemote drains a non-resident executor's local queues for as long as
// it stays remote, forwarding strays to the current owner so migration
// conserves tuples even when an old routing snapshot (or an in-flight TCP
// frame) deposits into the departed executor's queue. Data batches leave
// eng.pending here; they re-enter it in the owning process.
func (le *liveExec) pumpRemote(stop <-chan struct{}, done chan<- struct{}) {
	eng := le.eng
	defer eng.wg.Done()
	defer close(done)
	for {
		select {
		case <-stop:
			return
		case <-eng.stopCh:
			return
		case batch := <-le.in:
			le.credit(len(batch.msgs))
			eng.pending.Add(-int64(len(batch.msgs)))
			eng.forwardStranded(le, batch)
		case batch := <-le.ctl:
			eng.forwardStrandedCtl(le, batch)
		}
	}
}
