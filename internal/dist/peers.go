package dist

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tstorm/internal/cluster"
)

// Data-plane wire format: length-prefixed frames over persistent per-peer
// TCP connections. Each frame is
//
//	[u32 length][u32 generation][u8 hops][live binary frame]
//
// with length covering everything after itself (5 + len(frame), big
// endian). The generation is the sender's assignment generation at
// dispatch, so a receiver can tell pre-reassignment traffic from current
// traffic (§IV-D's dispatcher distinguishes tuples emitted under the old
// schedule); hops is the forwarding budget left for frames that land on a
// worker which no longer hosts the target executor mid-migration.
const (
	frameHeaderLen = 4 + 4 + 1
	// maxWireFrame caps one data frame; anything larger is a corrupt or
	// hostile length prefix and the connection is dropped.
	maxWireFrame = 64 << 20
	// DefaultMaxHops is the forwarding budget for frames chasing a migrated
	// executor. Two covers every single reassignment race (sender stale,
	// then forwarder stale); a third absorbs back-to-back generations.
	DefaultMaxHops = 3

	dialTimeout  = 2 * time.Second
	writeTimeout = 10 * time.Second
	// peerQueueBound is how many bytes of frames may wait for one peer's
	// writer before Send blocks its caller: backpressure first, and only
	// when a write fails or outlasts writeTimeout is the backlog shed.
	peerQueueBound = 256 << 10
	// wireReadBuf is a data connection's read buffer; frames that fit are
	// ingested straight out of it.
	wireReadBuf = 64 << 10
)

// appendWireFrame appends one frame, header first, to buf.
func appendWireFrame(buf []byte, gen uint32, hops byte, frame []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(5+len(frame)))
	buf = binary.BigEndian.AppendUint32(buf, gen)
	buf = append(buf, hops)
	return append(buf, frame...)
}

// wireReader hands out the frames of one peer connection without copying
// them: a frame that fits the read buffer is returned as a window into it
// (Peek) and consumed by the next call; a larger one is read into a
// per-connection scratch. Either way the frame is valid until the next
// call only — live.Engine.Ingest borrows it for exactly that long.
type wireReader struct {
	r    *bufio.Reader
	held int    // bytes of the last frame still in r's buffer
	big  []byte // scratch for frames larger than r's buffer
}

func newWireReader(c io.Reader) *wireReader {
	return &wireReader{r: bufio.NewReaderSize(c, wireReadBuf)}
}

// next reads one frame, enforcing the length cap before allocating. A
// stream that ends inside a frame reports io.ErrUnexpectedEOF; only one
// that ends between frames reports io.EOF.
func (wr *wireReader) next() (gen uint32, hops byte, frame []byte, err error) {
	wr.r.Discard(wr.held)
	wr.held = 0
	hdr, err := wr.r.Peek(frameHeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, err
	}
	length := binary.BigEndian.Uint32(hdr[:4])
	if length < 5 || length > maxWireFrame {
		return 0, 0, nil, fmt.Errorf("dist: wire frame length %d out of bounds", length)
	}
	gen, hops = binary.BigEndian.Uint32(hdr[4:8]), hdr[8]
	total := 4 + int(length)
	if total <= wr.r.Size() {
		if frame, err = wr.r.Peek(total); err == nil {
			wr.held = total
			return gen, hops, frame[frameHeaderLen:], nil
		}
	} else {
		wr.r.Discard(frameHeaderLen)
		n := total - frameHeaderLen
		if cap(wr.big) < n {
			wr.big = make([]byte, n)
		}
		frame = wr.big[:n]
		if _, err = io.ReadFull(wr.r, frame); err == nil {
			return gen, hops, frame, nil
		}
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return 0, 0, nil, err
}

// peerConn is the outbound half of one peer link: a bounded,
// double-buffered byte queue that senders append whole wire frames to,
// drained by one writer goroutine over a lazily dialed, persistent
// connection. Senders never touch the socket: send copies the frame in
// under mu and returns, so however many executors flush at once, the
// writer turns what accumulated while it was in write(2) into ONE Write
// per swap. A full queue blocks senders (backpressure); a failed or
// timed-out write closes the connection and sheds — and counts —
// everything queued, and the next swap redials, so the new stream starts
// on a frame boundary.
type peerConn struct {
	set  *peerSet
	addr string
	// stop interrupts a dial in flight when the link is closed.
	stop context.CancelFunc
	ctx  context.Context

	mu       sync.Mutex
	notEmpty sync.Cond // the writer waits here for frames (or close)
	notFull  sync.Cond // senders wait here for room (or close)
	queue    []byte    // frames awaiting the next swap
	frames   int64     // how many
	spare    []byte    // the other buffer, while the writer is not writing it
	closed   bool
	c        net.Conn // the writer's; here so close can interrupt its Write
}

func newPeerConn(set *peerSet, addr string) *peerConn {
	pc := &peerConn{set: set, addr: addr}
	pc.ctx, pc.stop = context.WithCancel(context.Background())
	pc.notEmpty.L, pc.notFull.L = &pc.mu, &pc.mu
	return pc
}

// send queues one frame for the writer, blocking while the queue is full
// (a frame larger than the bound goes through alone). False means the
// link was closed under the sender.
func (pc *peerConn) send(gen uint32, hops byte, frame []byte) bool {
	pc.mu.Lock()
	for !pc.closed && len(pc.queue) > 0 && len(pc.queue)+frameHeaderLen+len(frame) > peerQueueBound {
		pc.notFull.Wait()
	}
	if pc.closed {
		pc.mu.Unlock()
		return false
	}
	first := len(pc.queue) == 0
	pc.queue = appendWireFrame(pc.queue, gen, hops, frame)
	pc.frames++
	pc.set.inFlight.Add(1)
	pc.mu.Unlock()
	if first {
		pc.notEmpty.Signal()
	}
	return true
}

// run is the writer: swap the buffers, write what accumulated, repeat
// until the link is closed.
func (pc *peerConn) run() {
	defer pc.set.writers.Done()
	pc.mu.Lock()
	for {
		for len(pc.queue) == 0 && !pc.closed {
			pc.notEmpty.Wait()
		}
		if pc.closed {
			break
		}
		buf, n := pc.queue, pc.frames
		pc.queue, pc.frames, pc.spare = pc.spare[:0], 0, nil
		pc.mu.Unlock()
		pc.notFull.Broadcast()

		err := pc.write(buf)

		pc.mu.Lock()
		if cap(buf) <= 2*peerQueueBound {
			pc.spare = buf
		}
		if err != nil {
			// The peer is gone or stalled past the deadline: nothing that
			// queued up behind the failed write is worth keeping either —
			// at-least-once replay covers the loss, the counter explains it.
			n += pc.frames
			pc.queue, pc.frames = pc.queue[:0], 0
			pc.set.dropped.Add(n)
			pc.dropConn()
			pc.notFull.Broadcast()
		}
		pc.set.inFlight.Add(-n)
	}
	pc.set.dropped.Add(pc.frames)
	pc.set.inFlight.Add(-pc.frames)
	pc.queue, pc.frames = nil, 0
	pc.dropConn()
	pc.mu.Unlock()
}

// write sends one swap's worth of frames with a single Write, dialing
// first when there is no connection.
func (pc *peerConn) write(buf []byte) error {
	pc.mu.Lock()
	c := pc.c
	pc.mu.Unlock()
	if c == nil {
		var err error
		if c, err = pc.set.dial(pc.ctx, pc.addr); err != nil {
			return err
		}
		pc.mu.Lock()
		if pc.closed {
			pc.mu.Unlock()
			c.Close()
			return net.ErrClosed
		}
		pc.c = c
		pc.mu.Unlock()
	}
	c.SetWriteDeadline(time.Now().Add(pc.set.writeTimeout))
	_, err := c.Write(buf)
	return err
}

// dropConn closes the connection, if any. Caller holds pc.mu.
func (pc *peerConn) dropConn() {
	if pc.c != nil {
		pc.c.Close()
		pc.c = nil
	}
}

// close stops the writer: a dial or Write in flight is interrupted,
// blocked senders are released, and whatever is still queued is shed.
func (pc *peerConn) close() {
	pc.mu.Lock()
	pc.closed = true
	if pc.c != nil {
		pc.c.Close() // the writer clears pc.c on its way out
	}
	pc.mu.Unlock()
	pc.stop()
	pc.notEmpty.Signal()
	pc.notFull.Broadcast()
}

// peerSet implements live.RemoteSink for a worker: it owns the slot→addr
// map published by the driver and the outbound link to each peer. Send is
// called from executor goroutines (possibly several at once); it only
// borrows the frame — the bytes are copied into the peer's queue before
// it returns.
type peerSet struct {
	local   cluster.SlotID
	maxHops int
	// dial and writeTimeout are fixed at construction (net.Dialer with
	// dialTimeout, and the writeTimeout constant); the fault-injection
	// tests substitute their own.
	dial         func(ctx context.Context, addr string) (net.Conn, error)
	writeTimeout time.Duration

	mu     sync.Mutex
	addrs  map[cluster.SlotID]string
	conns  map[cluster.SlotID]*peerConn
	closed bool
	// writers tracks every writer goroutine ever started, including those
	// of links update retired, so closeAll can wait them all out.
	writers sync.WaitGroup

	// gen is the worker's current assignment generation, stamped on every
	// outgoing frame.
	gen atomic.Uint32

	// inFlight counts frames queued for, or being written by, the peer
	// writers: sent as far as the engine is concerned, not yet handed to
	// the kernel. The worker adds it to its pending report, or quiescence
	// would not see them.
	inFlight atomic.Int64
	// dropped counts frames that never reached a peer: no route, dial
	// refused, write error or deadline (those shed the whole backlog), or
	// the link closed under them. The engine has counted the tuples of the
	// ones Send accepted as sent; anchored roots recover by timeout +
	// replay, and this counter is what explains the replays.
	dropped atomic.Int64
}

func newPeerSet(local cluster.SlotID, maxHops int) *peerSet {
	if maxHops <= 0 {
		maxHops = DefaultMaxHops
	}
	return &peerSet{
		local:   local,
		maxHops: maxHops,
		dial: func(ctx context.Context, addr string) (net.Conn, error) {
			d := net.Dialer{Timeout: dialTimeout}
			return d.DialContext(ctx, "tcp", addr)
		},
		writeTimeout: writeTimeout,
		addrs:        make(map[cluster.SlotID]string),
		conns:        make(map[cluster.SlotID]*peerConn),
	}
}

// update installs a fresh slot→addr map. A peer whose address changed
// (respawned worker) gets its stale link closed so the next send dials
// the new process.
func (p *peerSet) update(entries []peerEntry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fresh := make(map[cluster.SlotID]string, len(entries))
	for _, e := range entries {
		fresh[e.Slot] = e.Addr
	}
	for slot, pc := range p.conns {
		if addr, ok := fresh[slot]; !ok || addr != pc.addr {
			pc.close()
			delete(p.conns, slot)
		}
	}
	p.addrs = fresh
}

// Send implements live.RemoteSink: encode-side transfer of one frame to
// the worker owning slot `to`. False means undeliverable — the engine
// counts the drop and at-least-once replay recovers the tuples. True
// means queued, not delivered: the engine counts the frame's tuples as
// sent (totals, edge matrix, the monitor's traffic window) and a frame
// the writer sheds later is not taken back out. Toward a peer that just
// died that over-counts by what was queued for it — at most
// peerQueueBound, plus what senders add while they block on the full
// queue, for at most writeTimeout — and only dropped (in frames, not
// tuples) explains the difference.
func (p *peerSet) Send(to cluster.SlotID, frame []byte) bool {
	return p.send(to, frame, byte(p.maxHops))
}

// send queues one frame with an explicit hop budget (forwarding
// decrements it) on the link to the slot's owner, starting the link's
// writer on first use.
func (p *peerSet) send(to cluster.SlotID, frame []byte, hops byte) bool {
	p.mu.Lock()
	addr, ok := p.addrs[to]
	if !ok || p.closed || len(frame) > maxWireFrame-5 {
		p.mu.Unlock()
		p.dropped.Add(1)
		return false
	}
	pc := p.conns[to]
	if pc == nil {
		pc = newPeerConn(p, addr)
		p.conns[to] = pc
		p.writers.Add(1)
		go pc.run()
	}
	p.mu.Unlock()
	if !pc.send(p.gen.Load(), hops, frame) {
		p.dropped.Add(1)
		return false
	}
	return true
}

// closeAll tears down every peer link (worker shutdown) and returns once
// no writer goroutine is left.
func (p *peerSet) closeAll() {
	p.mu.Lock()
	p.closed = true
	for slot, pc := range p.conns {
		pc.close()
		delete(p.conns, slot)
	}
	p.mu.Unlock()
	p.writers.Wait()
}
